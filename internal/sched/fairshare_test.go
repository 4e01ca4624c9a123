package sched

import (
	"testing"

	"repro/internal/sim"
)

// firstWave returns how many of ids are among the first `width` jobs
// dispatched at or after t0 (by start time order across both slices).
func firstWave(s *Scheduler, ids []string, t0 sim.Time, cutoff sim.Time) int {
	n := 0
	for _, id := range ids {
		if ji, _ := s.Poll(id); ji.State != Queued && ji.Started >= t0 && ji.Started < cutoff {
			n++
		}
	}
	return n
}

// fairShareDecayScenario: tenant "active" works alone, then both tenants
// submit a backlog after a long gap. Returns how many of each tenant's jobs
// started in the first scheduling wave after the gap.
func fairShareDecayScenario(t *testing.T, cfg Config) (activeFirst, returningFirst int) {
	t.Helper()
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10) // two 4-core jobs at a time
	s := New(b, cfg)
	s.AddTenant("active", 1)
	s.AddTenant("returning", 1)
	// Phase 1: the active tenant runs 20 jobs alone (2000 core-seconds);
	// the returning tenant is idle the whole time.
	spec := JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 100}
	submitN(t, s, "active", 20, spec)
	// Phase 2: after a long idle gap both tenants submit a backlog at once.
	const gap = 10000 * sim.Second
	var active, returning []string
	k.Schedule(gap, func() {
		active = submitN(t, s, "active", 8, spec)
		returning = submitN(t, s, "returning", 8, spec)
	})
	k.RunUntil(gap + 250*sim.Second) // three waves of two 100-second slots
	cutoff := gap + 250*sim.Second
	return firstWave(s, active, gap, cutoff), firstWave(s, returning, gap, cutoff)
}

// TestFairShareDecayRehabilitatesReturningTenant: without decay the
// returning tenant's banked zero usage lets it monopolize the cycles after
// its return; with a half-life much shorter than the idle gap both tenants
// are served evenly from the first post-gap wave.
func TestFairShareDecayRehabilitatesReturningTenant(t *testing.T) {
	// Baseline (cumulative usage): the returning tenant must win every slot
	// until it catches up 2000 core-seconds — the starvation the ROADMAP
	// flags. Three waves of two slots: active gets none.
	a0, r0 := fairShareDecayScenario(t, Config{})
	if a0 != 0 || r0 != 6 {
		t.Fatalf("no-decay baseline: active=%d returning=%d of first 6 starts, want 0/6 (monopoly)", a0, r0)
	}
	// With a 500 s half-life the 10000 s gap decays the active tenant's
	// usage by 2^-20: both start near parity and the waves interleave.
	a1, r1 := fairShareDecayScenario(t, Config{UsageHalfLife: 500 * sim.Second})
	if a1 != 3 || r1 != 3 {
		t.Fatalf("decay: active=%d returning=%d of first 6 starts, want 3/3 (parity)", a1, r1)
	}
}

// TestDecayIsHalfLifeExact: usage halves per half-life interval.
func TestDecayIsHalfLifeExact(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{UsageHalfLife: 100 * sim.Second})
	tn := s.AddTenant("t", 1)
	tn.usage = 800
	tn.usageAt = 0
	k.RunUntil(300 * sim.Second)
	s.decay(tn)
	if tn.usage < 99.9 || tn.usage > 100.1 {
		t.Fatalf("usage after 3 half-lives = %v, want ~100", tn.usage)
	}
}

// TestSharesAccountResizeEvents: a job that loses a worker mid-run is
// credited for the cores it actually held over time — 4 cores for the first
// half, 2 for the second — not its nominal size for the whole runtime.
func TestSharesAccountResizeEvents(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{DisableSpotReplacement: true})
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2,
		EstimateSeconds: 300, Spot: true, Bid: 0.05})[0]
	k.Schedule(150*sim.Second, func() {
		s.Notify(Event{Kind: EventSpotRevoked, Job: id, Cloud: "c0"})
	})
	k.Run()
	// 4 cores x 150 s + 2 cores x 150 s = 900 core-seconds; the old
	// accounting would have mis-attributed 4 x 300 = 1200.
	if got := s.DeliveredCoreSeconds("t"); got != 900 {
		t.Fatalf("delivered %v core-seconds, want 900 (resize-aware)", got)
	}
}

// TestSharesAccountGrowth: elastic growth is credited only from the moment
// the extra capacity arrived.
func TestSharesAccountGrowth(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 200})[0]
	k.Schedule(100*sim.Second, func() {
		j := s.jobByID(id)
		s.m.growRequests.Inc()
		s.growOne(j, &j.deadlineGrown)
	})
	k.Run()
	// 4 cores x 100 s + 6 cores x 100 s = 1000 core-seconds.
	if got := s.DeliveredCoreSeconds("t"); got != 1000 {
		t.Fatalf("delivered %v core-seconds, want 1000 (growth credited from arrival)", got)
	}
}

// TestDecayTrueUpDoesNotBankNegativeUsage: under decay, completing a job
// whose charge has already decayed inside usage must not drive usage
// permanently negative (which would make the tenant win every future
// cycle). Regression: trueUp used to subtract the full undecayed charge.
func TestDecayTrueUpDoesNotBankNegativeUsage(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{UsageHalfLife: 100 * sim.Second})
	s.AddTenant("t", 1)
	// A 1000 s job: its dispatch charge decays by 2^-10 before completion.
	submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 1000})
	k.Run()
	tn := s.tenants["t"]
	s.decay(tn)
	if tn.usage < 0 {
		t.Fatalf("usage went negative after true-up under decay: %v", tn.usage)
	}
	if tn.usage == 0 {
		t.Fatal("usage zero: the completed work left no recent-usage signal at all")
	}
}

// TestEntitledSharesSumInNameOrder: with fractional weights the total
// depends on the order the weights are added in (0.1+0.2+0.3 differs from
// 0.2+0.3+0.1 in the last bit), so EntitledShares must add them in name
// order, as Shares does, and answer the same on every call. The shares feed
// eviction prices, which order victims and are traced.
func TestEntitledSharesSumInNameOrder(t *testing.T) {
	s := New(NewSimBackend(sim.NewKernel(1)), Config{})
	weights := []float64{0.1, 0.2, 0.3}
	total := 0.0
	for i, w := range weights {
		s.AddTenant(string(rune('a'+i)), w)
		total += w
	}
	for call := 0; call < 100; call++ {
		got := s.EntitledShares()
		for i, w := range weights {
			name := string(rune('a' + i))
			if want := w / total; got[name] != want {
				t.Fatalf("call %d: share[%s]=%v, want %v (weights summed in name order)", call, name, got[name], want)
			}
		}
	}
}
