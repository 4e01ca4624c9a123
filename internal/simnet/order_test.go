package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// A flow's completion must order against other kernel events due at the
// same instant by when its completion was last scheduled, and every flow
// start re-schedules it. F (10 MB over a 1 MB/s NIC) ends at exactly 10 s;
// X is scheduled for 10 s at 2 s; G starts on another site at 3 s, which
// re-schedules F's completion behind X. So X fires before F's end record,
// even though F's earliest-completion time never changed.
func TestCompletionOrdersBehindSameInstantEvent(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddSite("a", 125*MB, 125*MB)
	b := n.AddSite("b", 125*MB, 125*MB)
	a0, a1 := a.AddNode("a0", MB), a.AddNode("a1", MB)
	b0, b1 := b.AddNode("b0", MB), b.AddNode("b1", MB)
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%v %s", k.Now(), s)) }
	n.Observe(func(ev FlowEvent) {
		if ev.Start {
			note("start " + ev.Tag)
		} else {
			note("end " + ev.Tag)
		}
	})
	n.StartFlow(a0, a1, 10*MB, "F", func() { note("done F") })
	k.At(2*sim.Second, func() { k.At(10*sim.Second, func() { note("X") }) })
	k.At(3*sim.Second, func() { n.StartFlow(b0, b1, 20*MB, "G", func() { note("done G") }) })
	k.Run()
	want := []string{
		"0.000000s start F",
		"3.000000s start G",
		"10.000000s X",
		"10.000000s end F",
		"10.000100s done F",
		"23.000000s end G",
		"23.000100s done G",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("firing order\n got %q\nwant %q", log, want)
	}
}

// Starting n flows at one instant leaves at most n events in the kernel:
// each start replaces the network's one pending completion, so n-1 of them
// are cancelled and one is live.
func TestPendingEventsBoundedByFlowStarts(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	const flows = 8
	for i := 1; i <= flows; i++ {
		n.StartFlow(a, b, int64(i)*MB, fmt.Sprintf("f%d", i), nil)
		if got := k.Pending(); got > i {
			t.Fatalf("%d flows started: %d events pending, want at most %d", i, got, i)
		}
	}
	k.Run()
	if n.ActiveFlows() != 0 || k.Pending() != 0 {
		t.Fatalf("after the run: %d active flows, %d events pending", n.ActiveFlows(), k.Pending())
	}
}

// goldenFiringOrder pins TestFiringOrderGolden's callback sequence: the
// sha256 of every callback's (virtual time, label) over all 200 scenarios.
// It was recorded while simnet still scheduled one completion event per
// active flow, so it also shows that the network's one pending event fires
// in exactly that order.
const goldenFiringOrder = "429dd70373be8dbefcf5a1c347f5c795144c73172d84286c0b121742a0999e06"

// TestFiringOrderGolden pins the order in which flow starts, end records,
// onDone callbacks, cancels and plain kernel events fire, over 200 seeded
// scenarios in TestComponentRatesMatchGlobalOracle's style. Capacities are
// whole MB/s powers of two and sizes whole MB, so completions often land
// on the same microsecond as each other. Probe events are scheduled at
// random times for the instant an active flow's completion is due (and for
// random eighth seconds), so same-instant ties between completions and
// other kernel events are common: their order depends on when each
// completion was last scheduled, which the rate tests cannot see.
func TestFiringOrderGolden(t *testing.T) {
	h := sha256.New()
	ties := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		n := New(k)
		pow2 := func(max int) float64 { return float64(int(1)<<rng.Intn(max)) * MB }
		var nodes []*Node
		for s := 0; s < 3; s++ {
			site := n.AddSite(fmt.Sprintf("s%d", s), pow2(4), pow2(4))
			for i := 0; i < 2; i++ {
				nodes = append(nodes, site.AddNode(fmt.Sprintf("n%d", 2*s+i), pow2(3)))
			}
		}
		ends := make(map[sim.Time]bool)
		var probes []sim.Time
		note := func(s string) { fmt.Fprintf(h, "%d %d %s\n", seed, k.Now(), s) }
		n.Observe(func(ev FlowEvent) {
			if ev.Start {
				note(fmt.Sprintf("start %s %d", ev.Tag, ev.Bytes))
				return
			}
			ends[k.Now()] = true
			note(fmt.Sprintf("end %s %d", ev.Tag, ev.Bytes))
		})
		probe := func(i int) func() {
			return func() {
				probes = append(probes, k.Now())
				note(fmt.Sprintf("probe %d", i))
			}
		}
		for i := 0; i < 24; i++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			if rng.Intn(10) == 0 {
				dst = src
			}
			var bytes int64
			if rng.Intn(10) != 0 {
				bytes = int64(1+rng.Intn(8)) * MB
			}
			at := sim.Time(rng.Intn(32)) * sim.Second / 8
			tag := fmt.Sprintf("f%d", i)
			cancelAfter := sim.Time(-1)
			if rng.Intn(5) == 0 {
				cancelAfter = sim.Time(1+rng.Intn(16)) * sim.Second / 8
			}
			k.At(at, func() {
				f := n.StartFlow(src, dst, bytes, tag, func() { note("done " + tag) })
				if cancelAfter >= 0 {
					k.Schedule(cancelAfter, func() {
						note("cancel " + tag)
						f.Cancel()
					})
				}
			})
		}
		for i := 0; i < 24; i++ {
			at := sim.Time(rng.Intn(64)) * sim.Second / 8
			if i%3 == 0 {
				k.At(at, probe(i))
				continue
			}
			// Probe the instant a random active flow's completion is
			// due: the last reschedule put it at f.last + remaining/rate.
			pick := rng.Intn(1 << 20)
			k.At(at, func() {
				var due []*Flow
				for _, f := range n.active {
					if f.rate > 0 {
						due = append(due, f)
					}
				}
				if len(due) == 0 {
					return
				}
				f := due[pick%len(due)]
				k.At(f.last+sim.FromSeconds(f.remaining/f.rate), probe(i))
			})
		}
		k.Run()
		for _, at := range probes {
			if ends[at] {
				ties++
			}
		}
	}
	// The golden only bites where probes tie with completions.
	if ties < 800 {
		t.Errorf("only %d probes fired at the instant of a flow's end record, want at least 800", ties)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFiringOrder {
		t.Errorf("firing order moved: got sha256 %s, want %s (%d probe ties)", got, goldenFiringOrder, ties)
	}
}
