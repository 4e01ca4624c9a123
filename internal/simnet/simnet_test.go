package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const (
	MB = 1 << 20
	GB = 1 << 30
)

// twoSiteNet builds two sites with one node each: 1 GB/s NICs, WAN 125 MB/s
// (a 1 Gb/s interconnect), 50 ms one-way latency.
func twoSiteNet(t testing.TB) (*sim.Kernel, *Network, *Node, *Node) {
	t.Helper()
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddSite("siteA", 125*MB, 125*MB)
	b := n.AddSite("siteB", 125*MB, 125*MB)
	n.SetSiteLatency("siteA", "siteB", 50*sim.Millisecond)
	na := a.AddNode("a0", 1*GB)
	nb := b.AddNode("b0", 1*GB)
	return k, n, na, nb
}

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.6f want %.6f (tol %.6f)", msg, got, want, tol)
	}
}

func TestSingleFlowWANTime(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	var doneAt sim.Time
	n.StartFlow(a, b, 125*MB, "bulk", func() { doneAt = k.Now() })
	k.Run()
	// 125 MB over a 125 MB/s bottleneck = 1 s, plus 50 ms latency.
	approx(t, doneAt.Seconds(), 1.05, 0.001, "WAN flow completion")
	if n.WANBytes("siteA", "siteB") != 125*MB {
		t.Fatalf("WAN accounting: %d", n.WANBytes("siteA", "siteB"))
	}
}

func TestLANFlowUsesNICBandwidth(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	s := n.AddSite("s", 125*MB, 125*MB)
	a := s.AddNode("a", 1*GB)
	b := s.AddNode("b", 1*GB)
	var doneAt sim.Time
	n.StartFlow(a, b, 1*GB, "local", func() { doneAt = k.Now() })
	k.Run()
	// 1 GB at 1 GB/s NIC = 1 s + 100 µs LAN latency; WAN must be untouched.
	approx(t, doneAt.Seconds(), 1.0001, 0.001, "LAN flow completion")
	if n.TotalWANBytes() != 0 {
		t.Fatal("LAN flow was billed to the WAN")
	}
}

func TestFairShareTwoFlows(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	var t1, t2 sim.Time
	n.StartFlow(a, b, 125*MB, "f1", func() { t1 = k.Now() })
	n.StartFlow(a, b, 125*MB, "f2", func() { t2 = k.Now() })
	k.Run()
	// Two equal flows share the 125 MB/s WAN: each runs at 62.5 MB/s,
	// finishing together at ~2 s (+latency).
	approx(t, t1.Seconds(), 2.05, 0.01, "flow 1")
	approx(t, t2.Seconds(), 2.05, 0.01, "flow 2")
}

func TestFairShareRampUp(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	var t1 sim.Time
	// Flow 1 alone for 0.5 s (62.5 MB done), then flow 2 joins and they
	// split: flow 1's remaining 62.5 MB takes 1 s more.
	n.StartFlow(a, b, 125*MB, "f1", func() { t1 = k.Now() })
	k.Schedule(500*sim.Millisecond, func() {
		n.StartFlow(a, b, 250*MB, "f2", nil)
	})
	k.Run()
	approx(t, t1.Seconds(), 1.55, 0.01, "flow 1 with mid-life contention")
}

func TestFlowReleaseSpeedsUpRemaining(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	var tSmall, tBig sim.Time
	n.StartFlow(a, b, 62500*1024, "small", func() { tSmall = k.Now() }) // 61.04 MB
	n.StartFlow(a, b, 125*MB, "big", func() { tBig = k.Now() })
	k.Run()
	if tSmall >= tBig {
		t.Fatalf("small flow (%v) should finish before big flow (%v)", tSmall, tBig)
	}
	// Big flow total: shares until small done, then full rate.
	// small = 64e6-ish bytes at 65.5 MB/s... just sanity-check ordering and
	// that big finishes sooner than a pure half-rate run (2 s).
	if tBig.Seconds() >= 2.05 {
		t.Fatalf("big flow never sped up after small flow finished: %v", tBig)
	}
}

func TestNICBottleneckOnLAN(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	s := n.AddSite("s", 1*GB, 1*GB)
	src := s.AddNode("src", 100*MB) // slow NIC
	dst := s.AddNode("dst", 1*GB)
	var done sim.Time
	n.StartFlow(src, dst, 100*MB, "x", func() { done = k.Now() })
	k.Run()
	approx(t, done.Seconds(), 1.0001, 0.001, "NIC-bound flow")
}

func TestZeroByteFlow(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	var done sim.Time
	n.StartFlow(a, b, 0, "z", func() { done = k.Now() })
	k.Run()
	approx(t, done.Seconds(), 0.05, 0.0001, "zero-byte flow = latency only")
}

func TestCancelAccountsPartialBytes(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	f := n.StartFlow(a, b, 125*MB, "bulk", func() { t.Fatal("cancelled flow ran onDone") })
	k.Schedule(500*sim.Millisecond, func() { f.Cancel() })
	k.Run()
	carried := n.WANBytes("siteA", "siteB")
	// Half the flow: ~62.5 MB.
	if carried < 62*MB || carried > 63*MB {
		t.Fatalf("partial accounting: %d bytes", carried)
	}
	if n.ActiveFlows() != 0 {
		t.Fatal("cancelled flow still active")
	}
}

func TestSendMessageLatency(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	var done sim.Time
	n.SendMessage(a, b, 1024, func() { done = k.Now() })
	k.Run()
	// 50 ms + 1 KiB / 125 MB/s ≈ 50.008 ms.
	approx(t, done.Seconds(), 0.050008, 0.0001, "control message")
}

func TestObserver(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	var events []FlowEvent
	n.Observe(func(ev FlowEvent) { events = append(events, ev) })
	n.StartFlow(a, b, MB, "tagged", nil)
	k.Run()
	if len(events) != 2 {
		t.Fatalf("want start+end events, got %d", len(events))
	}
	if !events[0].Start || events[0].Bytes != MB || events[0].Tag != "tagged" {
		t.Fatalf("bad start event: %+v", events[0])
	}
	if events[1].Start || events[1].Bytes != MB {
		t.Fatalf("bad end event: %+v", events[1])
	}
}

func TestCrossTrafficIndependentSites(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddSite("a", 125*MB, 125*MB)
	b := n.AddSite("b", 125*MB, 125*MB)
	c := n.AddSite("c", 125*MB, 125*MB)
	na := a.AddNode("na", 1*GB)
	nb := b.AddNode("nb", 1*GB)
	nc := c.AddNode("nc", 1*GB)
	var tab, tac sim.Time
	// a->b and c->a: share only a's uplink? No - different directions.
	// a->b uses a.Up and b.Down; c->a uses c.Up and a.Down. Independent.
	n.StartFlow(na, nb, 125*MB, "ab", func() { tab = k.Now() })
	n.StartFlow(nc, na, 125*MB, "ca", func() { tac = k.Now() })
	k.Run()
	approx(t, tab.Seconds(), 1.05, 0.01, "a->b unaffected by c->a")
	approx(t, tac.Seconds(), 1.05, 0.01, "c->a unaffected by a->b")
}

func TestSharedUplinkContention(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	a := n.AddSite("a", 125*MB, 125*MB)
	b := n.AddSite("b", 125*MB, 125*MB)
	c := n.AddSite("c", 125*MB, 125*MB)
	a0 := a.AddNode("a0", 1*GB)
	a1 := a.AddNode("a1", 1*GB)
	nb := b.AddNode("nb", 1*GB)
	nc := c.AddNode("nc", 1*GB)
	var t1, t2 sim.Time
	// Both flows leave site a: they share a's 125 MB/s uplink.
	n.StartFlow(a0, nb, 125*MB, "f1", func() { t1 = k.Now() })
	n.StartFlow(a1, nc, 125*MB, "f2", func() { t2 = k.Now() })
	k.Run()
	approx(t, t1.Seconds(), 2.05, 0.01, "uplink-shared flow 1")
	approx(t, t2.Seconds(), 2.05, 0.01, "uplink-shared flow 2")
}

func TestWANCost(t *testing.T) {
	k, n, a, b := twoSiteNet(t)
	n.CostPerWANByte = 1e-9 // $1/GB
	n.StartFlow(a, b, GB, "paid", nil)
	k.Run()
	approx(t, n.WANCost(), float64(GB)*1e-9, 0.001, "WAN cost accounting")
}

// Property: total bytes accounted on a site's uplink never exceeds
// capacity * elapsed time (conservation / no free bandwidth).
func TestPropNoFreeBandwidth(t *testing.T) {
	f := func(sizes []uint32) bool {
		k := sim.NewKernel(11)
		n := New(k)
		a := n.AddSite("a", 10*MB, 10*MB)
		b := n.AddSite("b", 10*MB, 10*MB)
		na := a.AddNode("na", 100*MB)
		nb := b.AddNode("nb", 100*MB)
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		for _, s := range sizes {
			n.StartFlow(na, nb, int64(s%(8*MB))+1, "p", nil)
		}
		k.Run()
		elapsed := k.Now().Seconds()
		carried := float64(a.Up.Bytes)
		// Allow 1% slack for the final-latency tail.
		return carried <= 10*MB*elapsed*1.01+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every started flow eventually completes and total WAN bytes
// equals the sum of flow sizes.
func TestPropAllFlowsComplete(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.NewKernel(13)
		n := New(k)
		a := n.AddSite("a", MB, MB)
		b := n.AddSite("b", MB, MB)
		na := a.AddNode("na", 10*MB)
		nb := b.AddNode("nb", 10*MB)
		if len(sizes) > 30 {
			sizes = sizes[:30]
		}
		var want int64
		completed := 0
		for _, s := range sizes {
			sz := int64(s) + 1
			want += sz
			n.StartFlow(na, nb, sz, "p", func() { completed++ })
		}
		k.Run()
		return completed == len(sizes) && n.WANBytes("a", "b") == want && n.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicCompletionOrder(t *testing.T) {
	run := func() []string {
		k := sim.NewKernel(5)
		n := New(k)
		a := n.AddSite("a", 10*MB, 10*MB)
		b := n.AddSite("b", 10*MB, 10*MB)
		na := a.AddNode("na", 100*MB)
		nb := b.AddNode("nb", 100*MB)
		var order []string
		for _, tag := range []string{"x", "y", "z", "w"} {
			tag := tag
			n.StartFlow(na, nb, 5*MB, tag, func() { order = append(order, tag) })
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic completion order: %v vs %v", a, b)
		}
	}
}

func TestLoopbackFlow(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k)
	s := n.AddSite("s", MB, MB)
	a := s.AddNode("a", 100*MB)
	var done sim.Time
	n.StartFlow(a, a, 100*MB, "loop", func() { done = k.Now() })
	k.Run()
	approx(t, done.Seconds(), 1.0001, 0.01, "loopback at NIC speed")
	if n.TotalWANBytes() != 0 {
		t.Fatal("loopback billed to WAN")
	}
}

// Node IDs are unique only per site, so flows on different sites can share
// their whole completion key (Src.ID, Dst.ID, Tag). Such flows that finish
// at the same instant must complete in the order they started, run after
// run.
func TestEqualKeyFlowsCompleteInStartOrder(t *testing.T) {
	want := []string{"site0", "site1", "site2", "site3"}
	for run := 0; run < 50; run++ {
		k := sim.NewKernel(1)
		n := New(k)
		var order []string
		for _, name := range want {
			name := name
			s := n.AddSite(name, 125*MB, 125*MB)
			h0 := s.AddNode("h0", 1*GB)
			h1 := s.AddNode("h1", 1*GB)
			n.StartFlow(h0, h1, 10*MB, "x", func() { order = append(order, name) })
		}
		k.Run()
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("run %d: equal-key flows completed in order %v, want start order %v", run, order, want)
		}
	}
}

// oracleRates is the reference max-min allocation: water filling over every
// flow in flows and every link they use, with bottlenecks picked by
// (share, Name). It is the whole-network pass simnet ran on every flow start
// and finish before it recomputed per connected component, reading only the
// flows' paths and link capacities.
func oracleRates(flows []*Flow) map[*Flow]float64 {
	type linkState struct {
		rem      float64
		unfrozen int
	}
	states := make(map[*Link]*linkState)
	var links []*Link
	rates := make(map[*Flow]float64, len(flows))
	for _, f := range flows {
		rates[f] = -1 // unfrozen marker
		for _, l := range f.links {
			st := states[l]
			if st == nil {
				st = &linkState{rem: l.Capacity}
				states[l] = st
				links = append(links, l)
			}
			st.unfrozen++
		}
	}
	frozen := 0
	for frozen < len(flows) {
		var bottleneck *Link
		share := math.Inf(1)
		for _, l := range links {
			st := states[l]
			if st.unfrozen == 0 {
				continue
			}
			s := st.rem / float64(st.unfrozen)
			if s < share || (s == share && (bottleneck == nil || l.Name < bottleneck.Name)) {
				share, bottleneck = s, l
			}
		}
		if bottleneck == nil {
			break
		}
		if share < 0 {
			share = 0
		}
		for _, f := range flows {
			if rates[f] >= 0 || !usesLink(f, bottleneck) {
				continue
			}
			rates[f] = share
			for _, l := range f.links {
				st := states[l]
				st.rem -= share
				if st.rem < 0 {
					st.rem = 0
				}
				st.unfrozen--
			}
			frozen++
		}
	}
	return rates
}

func usesLink(f *Flow, l *Link) bool {
	for _, g := range f.links {
		if g == l {
			return true
		}
	}
	return false
}

// TestComponentRatesMatchGlobalOracle drives 200 seeded random scenarios —
// three sites with random WAN and NIC capacities, nine nodes, forty flows
// at random times including loopback and zero-byte ones, about a fifth
// cancelled mid-flight — and after every kernel step checks each in-flight
// flow's rate against whole-network water filling, exactly.
func TestComponentRatesMatchGlobalOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		n := New(k)
		var nodes []*Node
		for s := 0; s < 3; s++ {
			site := n.AddSite(fmt.Sprintf("s%d", s), float64(1+rng.Intn(100))*MB, float64(1+rng.Intn(100))*MB)
			for i := 0; i < 3; i++ {
				nodes = append(nodes, site.AddNode(fmt.Sprintf("n%d", 3*s+i), float64(10+rng.Intn(990))*MB))
			}
		}
		var started []*Flow
		for i := 0; i < 40; i++ {
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			if rng.Intn(10) == 0 {
				dst = src
			}
			var bytes int64
			if rng.Intn(10) != 0 {
				bytes = 1 + rng.Int63n(200*MB)
			}
			at := sim.Time(rng.Int63n(int64(5 * sim.Second)))
			tag := fmt.Sprintf("f%d", rng.Intn(5))
			cancelAfter := sim.Time(-1)
			if rng.Intn(5) == 0 {
				cancelAfter = sim.Time(rng.Int63n(int64(2 * sim.Second)))
			}
			k.At(at, func() {
				f := n.StartFlow(src, dst, bytes, tag, nil)
				started = append(started, f)
				if cancelAfter >= 0 {
					k.Schedule(cancelAfter, f.Cancel)
				}
			})
		}
		for step := 0; k.Step(); step++ {
			var inFlight []*Flow
			for _, f := range started {
				if !f.finished {
					inFlight = append(inFlight, f)
				}
			}
			if n.ActiveFlows() != len(inFlight) {
				t.Fatalf("seed %d step %d: %d active flows, %d in flight", seed, step, n.ActiveFlows(), len(inFlight))
			}
			want := oracleRates(inFlight)
			for _, f := range inFlight {
				if f.Rate() != want[f] {
					t.Fatalf("seed %d step %d: flow %s->%s %q rate %v, whole-network water filling gives %v",
						seed, step, f.Src.ID, f.Dst.ID, f.Tag, f.Rate(), want[f])
				}
			}
		}
		if n.ActiveFlows() != 0 {
			t.Fatalf("seed %d: %d flows still active after the run", seed, n.ActiveFlows())
		}
	}
}
