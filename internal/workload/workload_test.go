package workload

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/sim"
)

// schedCfg is the policy bundle the tests replay under: everything on, so
// the replay exercises backfill, preemption, and consolidation paths.
func schedCfg(preempt bool) sched.Config {
	return sched.Config{
		EnablePreemption:    preempt,
		EnableConsolidation: preempt,
	}
}

// TestThinningRate checks the sampler's statistical sanity: with a flat
// rate curve the thinning generator is a plain Poisson process, so the
// empirical count over 24 h must sit within 5 sigma of base·hours at a
// fixed seed.
func TestThinningRate(t *testing.T) {
	const perHour, hours = 1000.0, 24.0
	tr := Generate(Config{
		Seed:    7,
		Horizon: sim.Time(hours * float64(sim.Hour)),
		Tenants: []TenantProfile{{Name: "t", BaseRatePerHour: perHour}},
	})
	want := perHour * hours
	got := float64(tr.Jobs())
	if tol := 5 * math.Sqrt(want); math.Abs(got-want) > tol {
		t.Fatalf("flat-rate thinning: %v jobs, want %v +/- %v", got, want, tol)
	}
}

// TestThinningDiurnal checks the inhomogeneous part: with full diurnal
// amplitude the 6 h window around the peak must collect several times the
// arrivals of the 6 h window around the trough.
func TestThinningDiurnal(t *testing.T) {
	const peak = 12.0
	tr := Generate(Config{
		Seed:    11,
		Horizon: 24 * sim.Hour,
		Tenants: []TenantProfile{{
			Name: "t", BaseRatePerHour: 600,
			DiurnalAmplitude: 1, PeakHour: peak,
		}},
	})
	var atPeak, atTrough int
	for _, ev := range tr.Events {
		h := sim.Time(ev.At).Seconds() / 3600
		switch {
		case math.Abs(h-peak) <= 3:
			atPeak++
		case h <= 3 || h >= 21: // trough at hour 0/24
			atTrough++
		}
	}
	// Exact rate ratio of the windows is ~12.7; demand a loose 4x so the
	// test pins the shape, not the sample noise.
	if atPeak < 4*atTrough || atTrough == 0 {
		t.Fatalf("diurnal thinning: peak window %d vs trough window %d, want >= 4x", atPeak, atTrough)
	}
}

// TestTraceRoundTrip: generate → save → load must reproduce the trace
// exactly, the re-save must be byte-identical, and replaying the loaded
// copy must produce the generated copy's metrics.
func TestTraceRoundTrip(t *testing.T) {
	tr := Generate(StandardConfig(3, 2000))
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	tr2, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(tr, tr2) {
		t.Fatalf("loaded trace differs from generated")
	}
	var buf2 bytes.Buffer
	if err := tr2.Save(&buf2); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatalf("re-saved trace is not byte-identical (%d vs %d bytes)", len(saved), buf2.Len())
	}
	cfg := ReplayConfig{OverrunSigma: 0.5, Sched: schedCfg(true)}
	r1, err := Replay(tr, cfg)
	if err != nil {
		t.Fatalf("replay generated: %v", err)
	}
	r2, err := Replay(tr2, cfg)
	if err != nil {
		t.Fatalf("replay loaded: %v", err)
	}
	if r1 != r2 {
		t.Fatalf("replay of loaded trace diverged:\n generated: %v\n loaded:    %v", r1, r2)
	}
	if r1.Completed == 0 || r1.Jobs != tr.Jobs() {
		t.Fatalf("replay did no work: %+v", r1)
	}
}

// TestReplayDeterminism100k: two same-seed 100k-job replays must produce
// identical metric snapshots — the Result struct and the scheduler's
// decision counters.
func TestReplayDeterminism100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-job replay in -short mode")
	}
	tr := Generate(StandardConfig(42, 100_000))
	if got := tr.Jobs(); got != 100_000 {
		t.Fatalf("standard trace capped at %d jobs, want 100000", got)
	}
	run := func() (Result, [2]int) {
		var counters [2]int
		r, err := Replay(tr, ReplayConfig{
			OverrunSigma: 0.5,
			Sched:        schedCfg(true),
			OnFinish: func(s *sched.Scheduler, _ *sched.SimBackend) {
				counters[0], counters[1] = s.Cycles(), s.Dispatched()
			},
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		return r, counters
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || c1 != c2 {
		t.Fatalf("same-seed replays diverged:\n run1: %v %v\n run2: %v %v", r1, c1, r2, c2)
	}
	if r1.Completed < 90_000 {
		t.Fatalf("only %d of 100000 jobs completed: %v", r1.Completed, r1)
	}
}

// TestLoadRejectsBadInput covers the validation paths.
func TestLoadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad version":   `{"version":9,"seed":1,"tenants":[]}`,
		"bad kind":      "{\"version\":1,\"seed\":1,\"tenants\":[]}\n{\"at\":0,\"kind\":\"x\"}",
		"no tenant":     "{\"version\":1,\"seed\":1,\"tenants\":[]}\n{\"at\":0,\"kind\":\"submit\",\"workers\":1}",
		"out of order":  "{\"version\":1,\"seed\":1,\"tenants\":[]}\n{\"at\":5,\"kind\":\"revoke\",\"cloud\":\"c\"}\n{\"at\":4,\"kind\":\"revoke\",\"cloud\":\"c\"}",
		"revoke cloud?": "{\"version\":1,\"seed\":1,\"tenants\":[]}\n{\"at\":0,\"kind\":\"revoke\"}",
	}
	for name, in := range cases {
		if _, err := Load(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("%s: Load accepted invalid input", name)
		}
	}
}

// TestPercentileRank pins the survival tables' percentile rule — 1-based
// rank p·n rounded half up — and its bounds: the result is an input value
// between the minimum and the maximum, and it never falls as p grows.
func TestPercentileRank(t *testing.T) {
	for _, c := range []struct {
		n        int
		p50, p99 int // 0-based index returned at p = 0.5 and p = 0.99
	}{
		{1, 0, 0}, {2, 0, 1}, {3, 1, 2}, {70, 34, 68}, {100, 49, 98}, {150, 74, 148},
	} {
		sorted := make([]float64, c.n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		if got := percentile(sorted, 0.50); got != float64(c.p50) {
			t.Errorf("n=%d: p50 at index %v, want %d", c.n, got, c.p50)
		}
		if got := percentile(sorted, 0.99); got != float64(c.p99) {
			t.Errorf("n=%d: p99 at index %v, want %d", c.n, got, c.p99)
		}
	}
	f := func(vals []float64, a, b uint8) bool {
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
		}
		if len(vals) == 0 {
			return percentile(vals, 0.5) == 0
		}
		sort.Float64s(vals)
		lo, hi := float64(a%101)/100, float64(b%101)/100
		if lo > hi {
			lo, hi = hi, lo
		}
		x, y := percentile(vals, lo), percentile(vals, hi)
		i := sort.SearchFloat64s(vals, x)
		return i < len(vals) && vals[i] == x && x >= vals[0] && y <= vals[len(vals)-1] && x <= y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
