package sched

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Tests for revocable placement: spot-priced preemption, reservation aging,
// reservation recompute across unchanged cycles, consolidation of running
// spanning gangs, and the blocked-job watermark under a single-cloud policy.

// liarBackend returns a backend where jobs named "liar" run `factor` times
// their estimate — the optimistic-estimate workload that makes reservations
// slip (their ledger leases keep the estimated end, as in a real
// federation).
func liarBackend(k *sim.Kernel, cores int, factor float64) *SimBackend {
	b := NewSimBackend(k)
	b.AddCloud("c0", cores, 1, 0.10)
	b.Overrun = func(j *Job) float64 {
		if j.Spec.Name == "liar" {
			return factor
		}
		return 1
	}
	return b
}

// preemptScenario builds the canonical blocked-head-behind-a-liar setup:
// A (8 of 16 cores, exact 100 s), head H (16 cores, blocked, reserved at
// t=100), and backfill B ("liar": estimates 80 s, actually runs 320 s).
// Without preemption H cannot start before B's true completion at t≈320.
func preemptScenario(t *testing.T, cfg Config) (*sim.Kernel, *Scheduler, string, string) {
	t.Helper()
	k := sim.NewKernel(1)
	b := liarBackend(k, 16, 4)
	s := New(b, cfg)
	s.Start()
	s.AddTenant("t", 1)
	submitN(t, s, "t", 1, JobSpec{Name: "hold", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})
	head := submitN(t, s, "t", 1, JobSpec{Name: "head", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 50})[0]
	liar := submitN(t, s, "t", 1, JobSpec{Name: "liar", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 80})[0]
	return k, s, head, liar
}

// TestPreemptionLetsHeadStart: once the head's reservation has slipped
// MaxSlips times (the liar's release keeps not happening), the liar is
// evicted, the head starts on its cores, and the liar requeues and still
// completes — with the eviction recorded on both sides.
func TestPreemptionLetsHeadStart(t *testing.T) {
	k, s, head, liar := preemptScenario(t, Config{EnablePreemption: true})
	k.Run()
	hi, _ := s.Poll(head)
	li, _ := s.Poll(liar)
	if hi.State != Done || li.State != Done {
		t.Fatalf("states: head=%v liar=%v, want both done", hi.State, li.State)
	}
	// Without preemption the head waits for the liar's true completion at
	// t≈320 (see TestPreemptionDisabledHeadWaits); with it, eviction fires
	// a few elastic-driven cycles after the t=100 slip onset.
	if hi.Started >= 200*sim.Second {
		t.Errorf("head started at %v — preemption never fired", hi.Started)
	}
	if s.Preemptions() != 1 || li.Preemptions != 1 {
		t.Errorf("Preemptions: scheduler=%d job=%d, want 1/1", s.Preemptions(), li.Preemptions)
	}
	if s.ReservationAgings() == 0 {
		t.Error("preemption fired without a reservation-aging trigger")
	}
	// The liar was requeued, not failed: it redispatched after the head.
	if li.Started <= hi.Started {
		t.Errorf("evicted job's final start %v not after the head's %v", li.Started, hi.Started)
	}
}

// TestPreemptionDisabledHeadWaits: the contrast run — with the default-off
// flag the head waits for the liar's true completion, exactly the
// pre-preemption scheduler.
func TestPreemptionDisabledHeadWaits(t *testing.T) {
	k, s, head, liar := preemptScenario(t, Config{})
	k.Run()
	hi, _ := s.Poll(head)
	li, _ := s.Poll(liar)
	if s.Preemptions() != 0 || li.Preemptions != 0 {
		t.Fatalf("preemption fired while disabled: scheduler=%d job=%d", s.Preemptions(), li.Preemptions)
	}
	if hi.Started < li.Finished {
		t.Errorf("head started at %v before the liar finished at %v without preemption",
			hi.Started, li.Finished)
	}
}

// TestPreemptionProgressCredit: the evicted liar's second dispatch charges
// and estimates only its remaining work — its requeued run is shorter than
// a from-scratch run would be.
func TestPreemptionProgressCredit(t *testing.T) {
	k, s, _, liar := preemptScenario(t, Config{EnablePreemption: true})
	k.Run()
	li, _ := s.Poll(liar)
	if li.State != Done || li.Preemptions != 1 {
		t.Fatalf("liar state=%v preemptions=%d", li.State, li.Preemptions)
	}
	j := s.jobByID(liar)
	if j.creditFrac <= 0 {
		t.Fatal("evicted job carries no progress credit")
	}
	// Second run: estimate (80 s) discounted by the credit, overrun 4x.
	wantMax := sim.FromSeconds(80 * (1 - j.creditFrac) * 4)
	if got := li.Finished - li.Started; got > wantMax+sim.Second {
		t.Errorf("requeued run took %v, want <= %v (progress credit lost)", got, wantMax)
	}
}

// TestPreemptionKeepsQueuePosition: the evicted job re-enters its tenant's
// queue in submission order — a job submitted after it cannot leapfrog it
// once capacity frees up (the no-starvation half of the satellite).
func TestPreemptionKeepsQueuePosition(t *testing.T) {
	k := sim.NewKernel(1)
	b := liarBackend(k, 16, 4)
	s := New(b, Config{EnablePreemption: true})
	s.Start()
	s.AddTenant("t", 1)
	submitN(t, s, "t", 1, JobSpec{Name: "hold", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})
	head := submitN(t, s, "t", 1, JobSpec{Name: "head", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 50})[0]
	liar := submitN(t, s, "t", 1, JobSpec{Name: "liar", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 80})[0]
	// Submitted after the liar; needs the whole cloud, so it cannot share a
	// dispatch instant with it.
	late := submitN(t, s, "t", 1, JobSpec{Name: "late", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 30})[0]
	k.Run()
	hi, _ := s.Poll(head)
	li, _ := s.Poll(liar)
	lt, _ := s.Poll(late)
	if li.State != Done || lt.State != Done {
		t.Fatalf("states: liar=%v late=%v", li.State, lt.State)
	}
	if li.Preemptions == 0 {
		t.Fatal("liar never evicted; scenario broken")
	}
	if li.Started <= hi.Started {
		t.Fatalf("liar restarted at %v, not after the head's start %v", li.Started, hi.Started)
	}
	if lt.Started <= li.Started {
		t.Errorf("job submitted after the victim started at %v, before the victim's restart %v "+
			"(queue position credit lost)", lt.Started, li.Started)
	}
	if li.Preemptions > s.Config().MaxPreemptions {
		t.Errorf("job evicted %d times, cap is %d", li.Preemptions, s.Config().MaxPreemptions)
	}
}

// TestReservationAgingDropsHold: with aging configured but preemption off,
// a slipping reservation's ledger hold is dropped (and re-established) so a
// misestimated gang cannot shade elastic growth forever — and the head
// still starts exactly at the liar's true completion (aging must not relax
// backfill gating).
func TestReservationAgingDropsHold(t *testing.T) {
	k, s, head, liar := preemptScenario(t, Config{ReservationMaxSlips: 2})
	k.Run()
	if s.ReservationAgings() == 0 {
		t.Fatal("reservation never aged out")
	}
	if s.Preemptions() != 0 {
		t.Fatal("aging without preemption evicted a job")
	}
	hi, _ := s.Poll(head)
	li, _ := s.Poll(liar)
	if hi.Started != li.Finished {
		t.Errorf("head started at %v, want the liar's true completion %v", hi.Started, li.Finished)
	}
}

// TestForcedPreemptOverrun: the elastic forced-preempt path — head-driven
// aging disabled — reclaims a backfilled job once it has run past
// PreemptOverrunFactor x its estimate while a reservation waits.
func TestForcedPreemptOverrun(t *testing.T) {
	k, s, head, liar := preemptScenario(t, Config{
		EnablePreemption:    true,
		ReservationMaxSlips: -1, // no head-driven eviction
	})
	k.Run()
	if s.ForcedPreemptions() != 1 {
		t.Fatalf("ForcedPreemptions = %d, want 1", s.ForcedPreemptions())
	}
	hi, _ := s.Poll(head)
	li, _ := s.Poll(liar)
	if hi.State != Done || li.State != Done {
		t.Fatalf("states: head=%v liar=%v", hi.State, li.State)
	}
	// The liar started at t=0 with an 80 s estimate: the overrun bound
	// (2x) passes at t=160, and the next elastic tick evicts it.
	if hi.Started < 160*sim.Second || hi.Started > 200*sim.Second {
		t.Errorf("head started at %v, want shortly after the t=160 overrun bound", hi.Started)
	}
}

// TestConsolidationMergesSpanningGang: a gang that spanned two clouds only
// because both were partially busy migrates onto one member once the
// co-tenants finish — the plan, the anchor, and the release entries follow.
func TestConsolidationMergesSpanningGang(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 32, 1, 0.10)
	b.AddCloud("c1", 32, 1, 0.10)
	s := New(b, Config{EnableConsolidation: true})
	s.Start()
	s.AddTenant("t", 1)
	submitN(t, s, "t", 1, JobSpec{Name: "f0", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 50})
	submitN(t, s, "t", 1, JobSpec{Name: "f1", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 50})
	// 24 single-core workers: neither cloud's 16 free cores fit, so it
	// spans c0:16 + c1:8.
	gang := submitN(t, s, "t", 1, JobSpec{Name: "gang", Workers: 24, CoresPerWorker: 1, EstimateSeconds: 300})[0]
	k.RunUntil(1 * sim.Second)
	gi, _ := s.Poll(gang)
	if !gi.Plan.Spanning() {
		t.Fatalf("gang did not span: %v", gi.Plan)
	}
	k.Run()
	gi, _ = s.Poll(gang)
	if gi.State != Done {
		t.Fatalf("gang state %v", gi.State)
	}
	if s.Consolidations() != 1 {
		t.Fatalf("Consolidations = %d, want 1", s.Consolidations())
	}
	if gi.Plan.Spanning() || gi.Plan.Primary() != "c0" || gi.Plan.Workers() != 24 {
		t.Errorf("gang plan after consolidation = %v, want all 24 workers on c0", gi.Plan)
	}
	// The ledger followed the move: nothing leaked on either cloud.
	if f0, f1 := b.ledger.Free("c0"), b.ledger.Free("c1"); f0 != 32 || f1 != 32 {
		t.Errorf("leaked cores after consolidated run: c0 free=%d c1 free=%d", f0, f1)
	}
}

// TestConsolidationRespectsReservation: a member cloud with room is NOT a
// consolidation target when an outstanding backfill reservation needs its
// cores — the ledger probe gates the move.
func TestConsolidationRespectsReservation(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 32, 1, 0.10)
	b.AddCloud("c1", 32, 1, 0.10)
	s := New(b, Config{EnableConsolidation: true})
	s.Start()
	s.AddTenant("t", 1)
	submitN(t, s, "t", 1, JobSpec{Name: "f0", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 50})
	submitN(t, s, "t", 1, JobSpec{Name: "f1", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 400})
	gang := submitN(t, s, "t", 1, JobSpec{Name: "gang", Workers: 24, CoresPerWorker: 1, EstimateSeconds: 300})[0]
	// Blocked wide job: its reservation claims c0's cores the moment f0
	// frees them, so the gang must not consolidate into them.
	submitN(t, s, "t", 1, JobSpec{Name: "wide", Workers: 16, CoresPerWorker: 2, EstimateSeconds: 50})
	k.RunUntil(280 * sim.Second) // f0 done, gang mid-run, wide reserved
	gi, _ := s.Poll(gang)
	if !gi.Plan.Spanning() {
		t.Fatalf("gang plan = %v, want still spanning (reserved cores untouchable)", gi.Plan)
	}
	k.Run()
	if s.Completed() != 4 {
		t.Fatalf("completed %d of 4", s.Completed())
	}
}

// TestReservationStableAcrossIdleCycles: cycles whose free vector and
// release list are unchanged recompute the blocked head's reservation to
// the same answer, so the head still starts exactly at the holder's finish
// (the backfill test's exact-start property).
func TestReservationStableAcrossIdleCycles(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("a", 1)
	hold := submitN(t, s, "a", 1, JobSpec{Workers: 3, CoresPerWorker: 2, EstimateSeconds: 200})[0]
	wide := submitN(t, s, "a", 1, JobSpec{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	// A stream of too-big-to-backfill submissions: each kicks a cycle in
	// which nothing changed for the blocked head.
	for i := 0; i < 8; i++ {
		k.At(sim.Time(10+i)*sim.Second, func() {
			submitN(t, s, "a", 1, JobSpec{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 300})
		})
	}
	k.Run()
	hi, _ := s.Poll(hold)
	wi, _ := s.Poll(wide)
	if wi.Started != hi.Finished {
		t.Errorf("wide started at %v, want the holder's finish %v (an idle cycle moved the reservation)",
			wi.Started, hi.Finished)
	}
}

// TestRandomPlacementExactStartUnderChurn: under the single-cloud random
// policy, churn on a cloud too small to ever host the job wakes the
// watermark without placing it (the exact fit precheck keeps the RNG
// stream untouched), and the job dispatches exactly when the eligible
// cloud frees up.
func TestRandomPlacementExactStartUnderChurn(t *testing.T) {
	k := sim.NewKernel(3)
	b := NewSimBackend(k)
	b.AddCloud("big", 16, 1, 0.10)
	b.AddCloud("small", 4, 1, 0.10)
	tr := obs.NewTracer(1 << 12)
	s := New(b, Config{Placement: RandomPlacement{}, Trace: tr})
	s.AddTenant("t", 1)
	// Fill both clouds; small churns with short jobs, big frees at t=500.
	bigHold := submitN(t, s, "t", 1, JobSpec{Workers: 8, CoresPerWorker: 2, EstimateSeconds: 500})[0]
	for i := 0; i < 6; i++ {
		k.At(sim.Time(i*40)*sim.Second, func() {
			submitN(t, s, "t", 1, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 30})
		})
	}
	// 8 cores: only "big" can ever host it under a single-cloud policy.
	blocked := submitN(t, s, "t", 1, JobSpec{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 50})[0]
	k.Run()
	hi, _ := s.Poll(bigHold)
	bi, _ := s.Poll(blocked)
	if bi.State != Done {
		t.Fatalf("blocked job state %v", bi.State)
	}
	if bi.Started != hi.Finished {
		t.Errorf("blocked job started at %v, want big's release %v (the watermark stranded it)",
			bi.Started, hi.Finished)
	}
	woke := 0
	for _, ev := range tr.Events() {
		if ev.Kind == "wake" && ev.Job == blocked && sim.Time(ev.At) < hi.Finished {
			woke++
		}
	}
	if woke == 0 {
		t.Error("small's churn never woke the blocked job before big freed up; scenario broken")
	}
}

// TestForcedPreemptionScopedToReservationClouds is the regression for the
// scoped forced-preempt pass: an overrunning backfilled job whose gang runs
// entirely on clouds the blocked head's reserved plan never touches must NOT
// be evicted — reclaiming it frees nothing the head can use. Cloud "a" (16
// cores) is held until t=100 and is the only cloud that can host the head
// (single-cloud policy, "b" has 8 cores); the overrunner fills "b" and blows
// through its 20 s estimate 20x. Before scoping it was evicted around t=40;
// now it runs to completion while the head starts exactly at t=100.
func TestForcedPreemptionScopedToReservationClouds(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("a", 16, 1, 0.10)
	b.AddCloud("b", 8, 1, 0.10)
	b.Overrun = func(j *Job) float64 {
		if j.Spec.Name == "liar" {
			return 20
		}
		return 1
	}
	s := New(b, Config{
		Placement:           RandomPlacement{}, // single-cloud: the head fits only on "a"
		EnablePreemption:    true,
		ReservationMaxSlips: -1, // no head-driven eviction; only the forced path
	})
	s.Start()
	s.AddTenant("t", 1)
	submitN(t, s, "t", 1, JobSpec{Name: "hold", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 100})
	head := submitN(t, s, "t", 1, JobSpec{Name: "head", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 50})[0]
	liar := submitN(t, s, "t", 1, JobSpec{Name: "liar", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 20})[0]
	k.Run()
	hi, _ := s.Poll(head)
	li, _ := s.Poll(liar)
	if hi.State != Done || li.State != Done {
		t.Fatalf("states: head=%v liar=%v, want both done", hi.State, li.State)
	}
	if li.Cloud != "b" || hi.Cloud != "a" {
		t.Fatalf("placements: head=%s liar=%s, want a/b — scenario broken", hi.Cloud, li.Cloud)
	}
	if s.ForcedPreemptions() != 0 || li.Preemptions != 0 {
		t.Errorf("forced preemption fired (sched=%d job=%d) for an overrunner outside the reservation's clouds",
			s.ForcedPreemptions(), li.Preemptions)
	}
	// The liar ran its full 20x overrun on "b" undisturbed...
	if got := li.Finished - li.Started; got < 390*sim.Second {
		t.Errorf("liar ran %v, want ~400 s uninterrupted", got)
	}
	// ...and the head started the moment "a"'s holder released it.
	if hi.Started != 100*sim.Second {
		t.Errorf("head started at %v, want exactly t=100 s", hi.Started)
	}
}
