package sched

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestStatsReadableDuringRun is the -race regression for the scheduler
// stats: every accessor must be safe to read from another goroutine while
// the kernel is dispatching, preempting, and completing jobs. Before the
// stats moved onto atomic registry counters this was a data race.
func TestStatsReadableDuringRun(t *testing.T) {
	k := sim.NewKernel(11)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	b.AddCloud("c1", 16, 1, 0.12)
	s := New(b, Config{EnablePreemption: true})
	s.Start()
	s.AddTenant("gold", 3)
	s.AddTenant("silver", 1)
	spec := JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 50}
	submitN(t, s, "gold", 30, spec)
	submitN(t, s, "silver", 30, spec)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sink := 0
		for !stop.Load() {
			sink += s.Cycles() + s.Dispatched() + s.Backfills() + s.Completed() +
				s.Failures() + s.GrowRequests() + s.ShrinkRequests() +
				s.SpotRevocations() + s.SpotReplacements() + s.PatternEvents() +
				s.Preemptions() + s.ForcedPreemptions() + s.ReservationAgings() +
				s.ConsolidationRequests() + s.Consolidations() + s.ResvCacheHits() +
				s.SpanningDispatched()
		}
		_ = sink
	}()
	k.RunUntil(2000 * sim.Second)
	stop.Store(true)
	wg.Wait()

	if s.Completed() == 0 {
		t.Fatal("no jobs completed; the run exercised nothing")
	}
	if s.Dispatched() < s.Completed() {
		t.Errorf("Dispatched=%d < Completed=%d", s.Dispatched(), s.Completed())
	}
}

// tracedRun drives one seeded contention run with tracing and streams the
// JSONL into a buffer. Two calls with the same seed must produce identical
// bytes: every traced field derives from virtual time and kernel-seeded
// randomness only.
func tracedRun(t *testing.T, seed int64) []byte {
	t.Helper()
	k := sim.NewKernel(seed)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	b.AddCloud("c1", 16, 1, 0.12)
	b.UseLogNormalOverrun(0, 0.4)
	tr := obs.NewTracer(1 << 14)
	var buf bytes.Buffer
	tr.SetSink(&buf)
	s := New(b, Config{EnablePreemption: true, Trace: tr})
	s.Start()
	s.AddTenant("gold", 3)
	s.AddTenant("silver", 1)
	for i := 0; i < 20; i++ {
		w := 2
		if i%4 == 3 {
			w = 6 // wide jobs block and force backfills + preemption pressure
		}
		submitN(t, s, "gold", 1, JobSpec{Workers: w, CoresPerWorker: 2, EstimateSeconds: 80})
		submitN(t, s, "silver", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 60})
	}
	k.RunUntil(3000 * sim.Second)
	if tr.Len() == 0 {
		t.Fatal("run emitted no trace events")
	}
	return buf.Bytes()
}

// TestTraceByteIdenticalAcrossRuns: two identical seeded runs emit
// byte-identical decision traces. This is the property that makes traces
// diffable across commits — any wall-clock or map-order leak breaks it.
func TestTraceByteIdenticalAcrossRuns(t *testing.T) {
	a := tracedRun(t, 7)
	c := tracedRun(t, 7)
	if !bytes.Equal(a, c) {
		t.Fatalf("same-seed traces differ (%d vs %d bytes)", len(a), len(c))
	}
	if other := tracedRun(t, 8); bytes.Equal(a, other) {
		t.Error("different seeds produced identical traces; trace is not exercising randomness")
	}
	if !bytes.Contains(a, []byte(`"kind":"dispatch"`)) {
		t.Error("trace has no dispatch events")
	}
}

// TestUseLogNormalOverrun: the kernel-seeded estimate-error model draws one
// seed from the kernel stream, so the same kernel seed reproduces the same
// multiplier sequence, and sigma>0 actually varies across jobs.
func TestUseLogNormalOverrun(t *testing.T) {
	draw := func(seed int64) []float64 {
		k := sim.NewKernel(seed)
		b := NewSimBackend(k)
		b.UseLogNormalOverrun(0, 0.5)
		out := make([]float64, 50)
		for i := range out {
			out[i] = b.Overrun(nil)
		}
		return out
	}
	a, c := draw(3), draw(3)
	varies := false
	for i := range a {
		if a[i] <= 0 {
			t.Fatalf("multiplier %d = %v, want > 0", i, a[i])
		}
		if a[i] != c[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], c[i])
		}
		if a[i] != a[0] {
			varies = true
		}
	}
	if !varies {
		t.Error("sigma=0.5 produced a constant multiplier")
	}
	if other := draw(4); other[0] == a[0] {
		t.Error("different kernel seeds produced the same first draw")
	}
}

// TestPhaseProfiling: with a fake monotonic clock, every scheduling cycle
// lands observations in the placement phase histogram, and the histogram is
// reachable through the public registry.
func TestPhaseProfiling(t *testing.T) {
	k := sim.NewKernel(5)
	b := saturatedBackend(k)
	s := New(b, Config{})
	var ticks int64
	s.m.clock = func() int64 { ticks += 1e6; return ticks } // 1 ms per reading
	s.AddTenant("t", 1)
	submitN(t, s, "t", 4, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 30})
	k.RunUntil(300 * sim.Second)
	if s.Completed() != 4 {
		t.Fatalf("completed %d jobs, want 4", s.Completed())
	}
	n := s.Obs().Value("sky_sched_phase_seconds", "placement")
	if n < float64(s.Cycles()) {
		t.Errorf("placement phase observed %v times over %d cycles", n, s.Cycles())
	}
}
