package sched

import (
	"reflect"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sim"
)

// TestGangSpansWhenNoSingleCloudFits: a job wider than every cloud gets a
// multi-member plan, debits every member, and completes; a fitting job
// stays single-cloud.
func TestGangSpansWhenNoSingleCloudFits(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	c0 := b.AddCloud("c0", 16, 1, 0.10)
	c1 := b.AddCloud("c1", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	// 12 workers x 2 cores = 24 > 16: must span.
	wide := submitN(t, s, "t", 1, JobSpec{Workers: 12, CoresPerWorker: 2, EstimateSeconds: 100,
		MR: mapreduce.Job{NumMaps: 24, NumReduces: 2, ShuffleBytesPerMapPerReduce: 1 << 20}})[0]
	k.RunUntil(1 * sim.Second)
	wi, _ := s.Poll(wide)
	if wi.State != Running {
		t.Fatalf("wide job not running: %v", wi.State)
	}
	if !wi.Plan.Spanning() || wi.Plan.Workers() != 12 {
		t.Fatalf("plan %v: want a 12-worker spanning plan", wi.Plan)
	}
	if c0.Free()+c1.Free() != 32-24 {
		t.Fatalf("free cores c0=%d c1=%d; want 8 total used by the gang", c0.Free(), c1.Free())
	}
	if s.SpanningDispatched() != 1 {
		t.Errorf("SpanningDispatched = %d, want 1", s.SpanningDispatched())
	}
	k.Run()
	wi, _ = s.Poll(wide)
	if wi.State != Done {
		t.Fatalf("wide job state %v err %v", wi.State, wi.Err)
	}
	if c0.Free() != 16 || c1.Free() != 16 {
		t.Errorf("cores leaked: c0=%d c1=%d free", c0.Free(), c1.Free())
	}
}

// TestSingleCloudPreferredWhenItFits: gang plans are a fallback, not a
// competitor — a job that fits one cloud never spans.
func TestSingleCloudPreferredWhenItFits(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	b.AddCloud("c1", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 8, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	k.RunUntil(1 * sim.Second)
	ji, _ := s.Poll(id)
	if ji.Plan.Spanning() {
		t.Fatalf("fitting job spanned: %v", ji.Plan)
	}
}

// TestShuffleAwarePartnerChoice: when a gang must span, the shuffle cost
// term steers the second member toward the fat-pipe partner even though the
// thin-pipe one is cheaper; disabling the term flips the choice to the
// cheap cloud.
func TestShuffleAwarePartnerChoice(t *testing.T) {
	build := func(cfg Config) (*sim.Kernel, *Scheduler) {
		k := sim.NewKernel(1)
		b := NewSimBackend(k)
		b.AddCloud("anchor", 32, 1, 0.08)
		b.AddCloud("fat", 32, 1, 0.12)
		b.AddCloud("thin", 32, 1, 0.05)
		b.SetBandwidth("anchor", "fat", 100<<20)
		b.SetBandwidth("anchor", "thin", 5<<20)
		b.SetBandwidth("fat", "thin", 5<<20)
		s := New(b, cfg)
		s.AddTenant("t", 1)
		return k, s
	}
	spec := JobSpec{Workers: 24, CoresPerWorker: 2, EstimateSeconds: 100,
		InputSite: "anchor", InputBytes: 256 << 20,
		MR: mapreduce.Job{NumMaps: 48, NumReduces: 8, ShuffleBytesPerMapPerReduce: 2 << 20}}
	run := func(cfg Config) Plan {
		k, s := build(cfg)
		id := submitN(t, s, "t", 1, spec)[0]
		k.RunUntil(1 * sim.Second)
		ji, _ := s.Poll(id)
		return ji.Plan
	}
	aware := run(Config{})
	if !aware.Spanning() || aware.WorkersOn("fat") == 0 || aware.WorkersOn("thin") != 0 {
		t.Fatalf("shuffle-aware plan %v: want anchor+fat", aware)
	}
	oblivious := run(Config{DisableShuffleCost: true})
	if !oblivious.Spanning() || oblivious.WorkersOn("thin") == 0 {
		t.Fatalf("bandwidth-oblivious plan %v: want the cheaper thin-pipe partner", oblivious)
	}
}

// TestPlanTieBreak: among equal-scoring single-cloud plans, lower price
// wins, then name.
func TestPlanTieBreak(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("bb", 16, 1, 0.10)
	b.AddCloud("aa", 16, 1, 0.20)
	b.AddCloud("cc", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	k.RunUntil(1 * sim.Second)
	ji, _ := s.Poll(id)
	// All clouds score identically (no input, same headroom); bb and cc tie
	// on price 0.10 and bb wins by name.
	if ji.Cloud != "bb" {
		t.Fatalf("tie broken to %s, want bb (lowest price, then name)", ji.Cloud)
	}
}

// TestRandomPlacementPlanDeterminism: the same seed yields the identical
// plan sequence, run to run, under the plan-based API.
func TestRandomPlacementPlanDeterminism(t *testing.T) {
	run := func(seed int64) []Plan {
		k := sim.NewKernel(seed)
		b := NewSimBackend(k)
		b.AddCloud("c0", 32, 1, 0.1)
		b.AddCloud("c1", 32, 1, 0.1)
		b.AddCloud("c2", 32, 1, 0.1)
		s := New(b, Config{Placement: RandomPlacement{}})
		s.AddTenant("t", 1)
		ids := submitN(t, s, "t", 12, JobSpec{Workers: 1, CoresPerWorker: 2, EstimateSeconds: 10})
		k.Run()
		out := make([]Plan, len(ids))
		for i, id := range ids {
			ji, _ := s.Poll(id)
			out[i] = ji.Plan
		}
		return out
	}
	for _, seed := range []int64{7, 42, 1234} {
		a, b := run(seed), run(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plan sequences diverged:\n%v\n%v", seed, a, b)
		}
	}
}

// TestSingleCloudPolicyLeavesOversizedQueued: under RandomPlacement a job
// wider than every cloud is accepted but stays queued — without blocking
// jobs behind it — because only a spanning policy can ever place it.
func TestSingleCloudPolicyLeavesOversizedQueued(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	b.AddCloud("c1", 16, 1, 0.10)
	s := New(b, Config{Placement: RandomPlacement{}})
	s.AddTenant("t", 1)
	big := submitN(t, s, "t", 1, JobSpec{Workers: 12, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	small := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 50})[0]
	k.RunUntil(3600 * sim.Second)
	bi, _ := s.Poll(big)
	si, _ := s.Poll(small)
	if bi.State != Queued {
		t.Fatalf("oversized job state %v under single-cloud policy, want queued forever", bi.State)
	}
	if si.State != Done {
		t.Fatalf("small job state %v; the stuck head must not block it", si.State)
	}
}

// TestGangBackfillReservation: a wider-than-any-cloud job blocked behind
// running work receives a multi-cloud reservation and starts once the
// federation drains; a conflicting backfill candidate may not delay it.
func TestGangBackfillReservation(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	b.AddCloud("c1", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("a", 1)
	// Fill both clouds until t=200.
	submitN(t, s, "a", 1, JobSpec{Workers: 7, CoresPerWorker: 2, EstimateSeconds: 200})
	submitN(t, s, "a", 1, JobSpec{Workers: 7, CoresPerWorker: 2, EstimateSeconds: 200})
	// The gang needs 24 cores: no single cloud ever fits it, so its
	// reservation must be a spanning vector over both clouds.
	gang := submitN(t, s, "a", 1, JobSpec{Workers: 12, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	// This 2-core job fits now but would run past t=200 on reserved cores.
	long := submitN(t, s, "a", 1, JobSpec{Workers: 1, CoresPerWorker: 2, EstimateSeconds: 500})[0]
	k.Run()
	gi, _ := s.Poll(gang)
	li, _ := s.Poll(long)
	if gi.State != Done {
		t.Fatalf("gang job state %v err %v", gi.State, gi.Err)
	}
	if !gi.Plan.Spanning() {
		t.Fatalf("gang plan %v not spanning", gi.Plan)
	}
	if gi.Started != 200*sim.Second {
		t.Errorf("gang started at %v, want t=200s (the drain instant)", gi.Started)
	}
	if li.Started < gi.Started {
		t.Errorf("long job (started %v) jumped the gang reservation (%v)", li.Started, gi.Started)
	}
}

// TestElasticGrowPrefersExistingMembers: extras land on a member cloud
// while it has room, then spill to a new cloud.
func TestElasticGrowPrefersExistingMembers(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	c0 := b.AddCloud("c0", 6, 1, 0.10)
	c1 := b.AddCloud("c1", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 300})[0]
	k.RunUntil(1 * sim.Second)
	ji, _ := s.Poll(id)
	if ji.Cloud != "c0" {
		t.Fatalf("job on %s, want c0 (more headroom per total? c0 smaller) — plan %v", ji.Cloud, ji.Plan)
	}
	h := s.jobByID(id).handle.(*SimHandle)
	// First extra fits the member cloud (2 cores left on c0).
	h.Grow(1, nil)
	k.RunUntil(2 * sim.Second)
	if c0.Free() != 0 {
		t.Fatalf("extra not placed on member cloud: c0 free=%d", c0.Free())
	}
	// Second extra must spill to c1.
	h.Grow(1, nil)
	k.RunUntil(3 * sim.Second)
	if c1.Free() != 14 {
		t.Fatalf("spill extra not on c1: free=%d, want 14", c1.Free())
	}
	// Shrink releases newest-first: the spill comes back before the member
	// extra.
	if n := h.Shrink(1); n != 1 || c1.Free() != 16 {
		t.Fatalf("shrink released n=%d c1.free=%d, want the c1 spill back", n, c1.Free())
	}
}

// TestNegativeScorePlanStillPlaces: a spanning plan whose shuffle penalty
// pushes its score below zero is still feasible and must dispatch — only
// capacity infeasibility may reject a plan. Regression: the scorer's old
// "-1 means unfit" sentinel swallowed legitimately negative scores,
// leaving wide shuffle-heavy jobs queued forever on an idle federation.
func TestNegativeScorePlanStillPlaces(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	b.AddCloud("c1", 16, 1, 0.10)
	b.SetBandwidth("c0", "c1", 1<<20) // 1 MB/s: enormous shuffle penalty
	s := New(b, Config{})
	s.AddTenant("t", 1)
	id := submitN(t, s, "t", 1, JobSpec{Workers: 12, CoresPerWorker: 2, EstimateSeconds: 50,
		MR: mapreduce.Job{NumMaps: 24, NumReduces: 8, ShuffleBytesPerMapPerReduce: 8 << 20}})[0]
	k.RunUntil(1 * sim.Second)
	ji, _ := s.Poll(id)
	if ji.State != Running || !ji.Plan.Spanning() {
		t.Fatalf("shuffle-heavy wide job state %v plan %v; want running under a spanning plan", ji.State, ji.Plan)
	}
	if ji.Plan.Score >= 0 {
		t.Fatalf("plan score %v: the scenario is meant to exercise a negative-score plan", ji.Plan.Score)
	}
}
