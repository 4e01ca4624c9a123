package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Golden decision pins: three seeded workloads whose full decision traces
// and final delivered shares are pinned by sha256 digest. Any change to a
// placement, reservation, backfill, eviction, or elastic decision — or to
// a single bit of a traced price or share — moves a digest. A refactor
// that keeps the digests keeps the scheduler's behaviour.
//
// The digests were recorded on linux/amd64 with go1.24. A legitimate
// behaviour change re-records them: run the test, check the "got" digests
// in the failure against the intended change, and paste them below. To
// review a move line by line, dump the traces at both commits and diff
// them:
//
//	go test ./internal/sched -run TestDecisionsGolden -args -golden.dump=DIR
const (
	goldenPlainTrace  = "8a7bdd94d25a544ab29d140c500fe2028c198a1185c1c941e973abf2bed2882e"
	goldenPlainLen    = 272675
	goldenPlainShares = "faf6448c6a2344e5736570738ff07eef53f2d15daf69df1ed39444279041ba4d"

	goldenStormTrace  = "edb31de9c495d03ef4b126687d9b7af567d2d3e7de9aa3e0057ac671219a28ca"
	goldenStormLen    = 274254
	goldenStormShares = "53d264f6de30e044966ac281b6ac94e3e376dc20534816f62f61fd7264f56e17"

	goldenEvictTrace     = "d50ea37d2fbebc1fca28797261b8b2711cbe7d531410e08a4bbc1f3fde1b9621"
	goldenEvictLen       = 76845
	goldenEvictEvictions = 45
)

// goldenDump names a directory TestDecisionsGolden writes its three decision
// traces to (plain.jsonl, storm.jsonl, eviction_storm.jsonl) before
// comparing digests; empty writes nothing.
var goldenDump = flag.String("golden.dump", "", "directory to write TestDecisionsGolden's decision traces to")

// decisionWorkload drives one seeded federation wide enough to exercise
// every scheduler phase — 20 clouds and 300 tenants, with wide jobs that
// block, reserve, backfill, preempt, consolidate, and grow/shrink. With
// storm set, a deterministic outage storm rides along: two full crashes, a
// flap episode deep enough to quarantine, and a transient deploy-fault
// burst, so the degraded-mode paths are pinned too. Returns the decision
// trace bytes and the final shares.
func decisionWorkload(t *testing.T, storm bool) ([]byte, map[string]float64) {
	t.Helper()
	k := sim.NewKernel(7)
	b := NewSimBackend(k)
	for c := 0; c < 20; c++ {
		b.AddCloud(fmt.Sprintf("c%02d", c), 16, 1.0+0.05*float64(c%5), 0.08+0.01*float64(c%7))
	}
	b.UseLogNormalOverrun(0, 0.4)
	tr := obs.NewTracer(1 << 16)
	var buf bytes.Buffer
	tr.SetSink(&buf)
	s := New(b, Config{
		EnablePreemption:    true,
		EnableConsolidation: true,
		Trace:               tr,
	})
	s.Start()
	if storm {
		outage := func(at sim.Time, cloud string, dur sim.Time) {
			k.At(at, func() {
				if _, err := b.FailCloud(cloud); err != nil {
					t.Errorf("fail %s: %v", cloud, err)
				}
				s.Notify(Event{Kind: EventCloudFailed, Cloud: cloud})
			})
			k.At(at+dur, func() {
				if err := b.RestoreCloud(cloud); err != nil {
					t.Errorf("restore %s: %v", cloud, err)
				}
				s.Notify(Event{Kind: EventCloudRestored, Cloud: cloud})
			})
		}
		outage(600*sim.Second, "c03", 600*sim.Second)
		outage(2000*sim.Second, "c07", 500*sim.Second)
		// Flap c05 three times inside the flap window: the restore past the
		// threshold quarantines it behind jittered backoff.
		outage(3000*sim.Second, "c05", 40*sim.Second)
		outage(3080*sim.Second, "c05", 40*sim.Second)
		outage(3160*sim.Second, "c05", 40*sim.Second)
		// Deploy-fault bursts: the next launches touching c02 fail
		// transiently and exercise the retry/backoff path. Three strikes at
		// most per burst — within one job's retry budget even if a single
		// job eats the whole burst.
		k.At(500*sim.Second, func() { b.FailNextLaunches("c02", 3) })
		k.At(4000*sim.Second, func() { b.FailNextLaunches("c02", 3) })
	}
	for ti := 0; ti < 300; ti++ {
		name := fmt.Sprintf("t%03d", ti)
		s.AddTenant(name, 1+float64(ti%3))
		w := 2
		var deadline sim.Time
		maxExtra := 0
		switch ti % 9 {
		case 5:
			w = 24 // wider than any cloud: spanning plans, blocks, reservations
		case 2:
			w = 6 // spans under fragmentation yet fits one cloud: consolidation bait
		case 7:
			// An unreachable deadline: the elastic pass grows the gang to the
			// cap, then shrinks it when the map phase drains.
			deadline = sim.Time(100+ti) * sim.Second
			maxExtra = 2
		}
		submitN(t, s, name, 2, JobSpec{
			Workers: w, CoresPerWorker: 2,
			EstimateSeconds: float64(40 + ti%60),
			Deadline:        deadline,
			MaxExtraWorkers: maxExtra,
		})
	}
	k.RunUntil(60000 * sim.Second)
	if got := s.Completed(); got != 600 {
		t.Fatalf("completed %d of 600 jobs", got)
	}
	if tr.Len() == 0 {
		t.Fatal("run emitted no trace events")
	}
	return buf.Bytes(), s.Shares()
}

// evictionStormWorkload drives the eviction machinery over a wide victim
// set: two holders pin 208 of 320 cores, a 160-core head blocks behind
// them and reserves, and a swarm of short jobs backfills the slack. The
// second holder and every backfilled small overrun their estimates, so the
// head's reserved start slips recompute after recompute until the
// reservation ages out and chooseVictims prices — and what-if prefix-fits
// — a long candidate list. Returns the decision trace and the eviction
// count.
func evictionStormWorkload(t *testing.T) ([]byte, int) {
	t.Helper()
	k := sim.NewKernel(13)
	b := NewSimBackend(k)
	for c := 0; c < 20; c++ {
		b.AddCloud(fmt.Sprintf("c%02d", c), 16, 1, 0.10)
	}
	b.Overrun = func(j *Job) float64 {
		switch j.Spec.Name {
		case "lateholder", "small":
			return 4 // overdue releases: the reserved start slips every recompute
		}
		return 1
	}
	tr := obs.NewTracer(1 << 16)
	var buf bytes.Buffer
	tr.SetSink(&buf)
	s := New(b, Config{EnablePreemption: true, Trace: tr})
	s.Start()
	sub := func(tenant string, spec JobSpec) {
		spec.Tenant = tenant
		if _, err := s.Submit(spec); err != nil {
			t.Fatalf("submit %s: %v", tenant, err)
		}
	}
	// Staged arrival, or the head would grab the idle federation at t=0: the
	// holders dispatch first (208 of 320 cores), the head arrives at t=1 and
	// blocks behind them with a reservation at the honest holder's ~600 s
	// release, and the smalls arrive at t=2 to backfill the remaining slack
	// under that far-future reservation.
	s.AddTenant("hold", 1)
	sub("hold", JobSpec{Name: "holder", Workers: 72, CoresPerWorker: 2, EstimateSeconds: 600})
	sub("hold", JobSpec{Name: "lateholder", Workers: 32, CoresPerWorker: 2, EstimateSeconds: 600})
	k.RunUntil(1 * sim.Second)
	s.AddTenant("head", 1)
	// 220 cores — more than the two holders' 208 — so the reserved plan must
	// also claim slack on the smalls' clouds: overrunning smalls feed the
	// reservation and the forced-preempt pass reclaims them at elastic ticks.
	sub("head", JobSpec{Name: "head", Workers: 110, CoresPerWorker: 2, EstimateSeconds: 300})
	k.RunUntil(2 * sim.Second)
	total := 3
	for ti := 0; ti < 40; ti++ {
		name := fmt.Sprintf("s%02d", ti)
		s.AddTenant(name, 1)
		for n := 0; n < 4; n++ {
			sub(name, JobSpec{Name: "small", Workers: 2, CoresPerWorker: 2,
				EstimateSeconds: float64(30 + ti%20)})
			total++
		}
	}
	k.RunUntil(40000 * sim.Second)
	if got := s.Completed(); got != total {
		t.Fatalf("completed %d of %d jobs", got, total)
	}
	return buf.Bytes(), s.Preemptions()
}

// sharesDigest hashes the shares map bit-exactly: one "name bits" line per
// tenant in name order, with each share's IEEE-754 bit pattern in hex.
func sharesDigest(shares map[string]float64) string {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %016x\n", n, math.Float64bits(shares[n]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// requireKinds fails unless the trace carries at least one event of each
// kind — the workload must still exercise the paths its digest pins.
func requireKinds(t *testing.T, trace []byte, kinds ...string) {
	t.Helper()
	for _, kind := range kinds {
		if !bytes.Contains(trace, []byte(`"kind":"`+kind+`"`)) {
			t.Fatalf("trace has no %s events; the workload no longer exercises that path", kind)
		}
	}
}

// requireBlockOncePerStay fails unless the trace has block records, no
// wake records, and at most one block per job between two of its
// dispatches: block marks the first check of a queued stay that finds the
// job unplaceable, and later checks in the stay leave no record.
func requireBlockOncePerStay(t *testing.T, trace []byte) {
	t.Helper()
	requireKinds(t, trace, "block")
	blocked := make(map[string]bool)
	for _, line := range bytes.Split(bytes.TrimSpace(trace), []byte("\n")) {
		var ev struct{ Kind, Job string }
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch ev.Kind {
		case "wake":
			t.Fatalf("trace has a wake record: %s", line)
		case "block":
			if blocked[ev.Job] {
				t.Fatalf("second block for %s in one queued stay: %s", ev.Job, line)
			}
			blocked[ev.Job] = true
		case "dispatch", "dispatch_backfill":
			delete(blocked, ev.Job)
		}
	}
}

// checkTraceDigest compares the trace against its pinned digest and length,
// first writing it to -golden.dump as name.jsonl when that flag is set.
func checkTraceDigest(t *testing.T, name string, trace []byte, wantDigest string, wantLen int) {
	t.Helper()
	if *goldenDump != "" {
		if err := os.MkdirAll(*goldenDump, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*goldenDump, name+".jsonl"), trace, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(trace)
	if got := hex.EncodeToString(sum[:]); got != wantDigest || len(trace) != wantLen {
		t.Fatalf("decision trace moved: got sha256 %s (%d bytes), want %s (%d bytes)",
			got, len(trace), wantDigest, wantLen)
	}
}

// TestDecisionsGolden pins the sequential scheduler's decisions on three
// workloads: the wide federation (plain), the same with an outage storm,
// and the eviction storm. Each first asserts that its paths fired, so a
// digest match always means those decisions were compared.
func TestDecisionsGolden(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		trace, shares := decisionWorkload(t, false)
		requireKinds(t, trace, "dispatch", "reserve", "preempt")
		requireBlockOncePerStay(t, trace)
		checkTraceDigest(t, "plain", trace, goldenPlainTrace, goldenPlainLen)
		if got := sharesDigest(shares); got != goldenPlainShares {
			t.Fatalf("final shares moved: got digest %s, want %s", got, goldenPlainShares)
		}
	})
	t.Run("storm", func(t *testing.T) {
		trace, shares := decisionWorkload(t, true)
		requireKinds(t, trace, "outage", "requeue", "restore")
		requireBlockOncePerStay(t, trace)
		checkTraceDigest(t, "storm", trace, goldenStormTrace, goldenStormLen)
		if got := sharesDigest(shares); got != goldenStormShares {
			t.Fatalf("final shares moved: got digest %s, want %s", got, goldenStormShares)
		}
	})
	t.Run("eviction_storm", func(t *testing.T) {
		trace, evictions := evictionStormWorkload(t)
		requireKinds(t, trace, "preempt", "forced_preempt")
		requireBlockOncePerStay(t, trace)
		if evictions != goldenEvictEvictions {
			t.Fatalf("%d evictions, want %d", evictions, goldenEvictEvictions)
		}
		checkTraceDigest(t, "eviction_storm", trace, goldenEvictTrace, goldenEvictLen)
	})
}
