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

// TestFairShareUsageIsCumulative: tenant "active" works alone, then both
// tenants submit a backlog after a long idle gap. Usage is cumulative, so
// the returning tenant's banked zero usage wins it every slot until it
// catches up the active tenant's 2000 core-seconds: three waves of two
// slots, and the active tenant gets none of the first six starts.
func TestFairShareUsageIsCumulative(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10) // two 4-core jobs at a time
	s := New(b, Config{})
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
	const cutoff = gap + 250*sim.Second // three waves of two 100-second slots
	k.RunUntil(cutoff)
	if a, r := firstWave(s, active, gap, cutoff), firstWave(s, returning, gap, cutoff); a != 0 || r != 6 {
		t.Fatalf("active=%d returning=%d of first 6 starts, want 0/6 (the returning tenant catches up first)", a, r)
	}
}

// TestSharesAccountResizeEvents: a job that loses a worker mid-run is
// credited for the cores it actually held over time — 4 cores for the first
// half, 2 for the second — not its nominal size for the whole runtime. A
// second tenant's job fills the cloud's other 4 cores, so the on-demand
// replacement finds no room and the job keeps its reduced size.
func TestSharesAccountResizeEvents(t *testing.T) {
	k := sim.NewKernel(1)
	b := saturatedBackend(k)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	s.AddTenant("u", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2,
		EstimateSeconds: 300, Spot: true, Bid: 0.05})[0]
	submitN(t, s, "u", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 300})
	k.Schedule(150*sim.Second, func() {
		s.Notify(Event{Kind: EventSpotRevoked, Job: id, Cloud: "c0"})
	})
	k.Run()
	if ji, _ := s.Poll(id); s.SpotReplacements() != 1 || ji.GrewBy != 0 {
		t.Fatalf("SpotReplacements=%d GrewBy=%d, want a replacement requested and denied (1/0)", s.SpotReplacements(), ji.GrewBy)
	}
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
