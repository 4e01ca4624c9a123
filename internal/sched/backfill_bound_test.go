package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sim"
)

// TestBackfillBoundSound checks the backfill bound against the gate it
// stands in for, on random views behind random reservations: whenever
// Choose places a job and backfillDoomed refuses it, backfillOK must refuse
// the plan. Views mix speeds of 0 and below 1, free vectors and release
// sums often fall short of the reserved cores, and jobs carry progress
// credit, input sites and shuffle volumes. It also checks the slot test
// the scheduler makes before every Choose call. A job that fails it must
// get no plan from either policy (the fact whatIfPlan and the cycle rely
// on to skip Choose). A job that passes it must get a plan that fits the
// view, the assumption the bound rests on, from BestScore always and from
// RandomPlacement whenever some cloud has the job's cores free.
func TestBackfillBoundSound(t *testing.T) {
	speeds := []float64{0, 0.25, 0.5, 0.8, 1, 1.2, 1.5, 3}
	for _, pol := range []PlacementPolicy{BestScore{}, RandomPlacement{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(20))
			k := sim.NewKernel(20)
			b := NewSimBackend(k)
			s := New(b, Config{Placement: pol})
			v := &s.view
			tries, refused, short := 0, 0, 0
			for c := 0; c < 5000; c++ {
				n := 1 + rng.Intn(8)
				snap := make([]CloudInfo, n)
				for i := range snap {
					snap[i] = CloudInfo{Name: fmt.Sprintf("c%d", i), FreeCores: rng.Intn(40),
						TotalCores: 64, Speed: speeds[rng.Intn(len(speeds))], Price: 0.05 + 0.01*float64(rng.Intn(8))}
					for o := 0; o < i; o++ {
						b.SetBandwidth(snap[o].Name, snap[i].Name, float64(1+rng.Intn(200))*(1<<20))
					}
				}
				v.Reset(snap)
				s.relSumAtResv = s.relSumAtResv[:0]
				for range snap {
					s.relSumAtResv = append(s.relSumAtResv, rng.Intn(24))
				}
				s.resv = randomReservation(rng, snap)
				s.holdFit(v)
				for q := 0; q < 8; q++ {
					j := randomBackfillJob(rng, snap)
					fr := s.fitRow(v, j.coresPerWorker())
					plan := pol.Choose(s, j, v)
					if fr.slots < j.workers() {
						short++
						if !plan.Empty() {
							t.Fatalf("case %d: Choose placed %d×%d cores as %v, past slot sum %d of free %v",
								c, j.workers(), j.coresPerWorker(), plan, fr.slots, v.free)
						}
						continue
					}
					if plan.Empty() && pol.Name() == "random" && !slices.ContainsFunc(v.free,
						func(f int) bool { return f >= j.Cores() }) {
						continue // no single cloud holds the gang
					}
					checkPlanFits(t, j, plan, v)
					tries++
					if !s.backfillDoomed(j.workers(), j.estimate(), fr) {
						continue
					}
					refused++
					if s.backfillOK(j, plan, s.resv, v) {
						t.Fatalf("case %d: the bound refused %d×%d cores (estimate %.1f s, extra %d, speed ceiling %v) but backfillOK accepts %v behind %v at %v, free %v, releases %v",
							c, j.workers(), j.coresPerWorker(), j.estimate(), fr.extra, s.fit.speedMax,
							plan, s.resv.plan, s.resv.at, v.free, s.relSumAtResv)
					}
				}
			}
			if refused < 200 || short < 200 {
				t.Fatalf("the bound refused %d of %d tries and %d jobs failed the slot test: too few to test them",
					refused, tries, short)
			}
		})
	}
}

// TestTenantSkipSound checks the tenant skip and the entry bound against
// what they stand in for, on random views behind random reservations, in
// TestBackfillBoundSound's style. Free vectors include negative entries.
// Each case builds a random queue of mixed shapes, some entries external
// and some with progress credit, through enqueue and popQueued, so the
// summary is maintained, goes stale and is recomputed as in a run. Whenever
// the summary says skip, no entry may pass the slot test for its own cpw;
// and for every entry the bound run on the entry's w and est must agree
// with the bound computed from its job.
func TestTenantSkipSound(t *testing.T) {
	speeds := []float64{0, 0.25, 0.5, 1, 1.5, 3}
	rng := rand.New(rand.NewSource(25))
	k := sim.NewKernel(25)
	b := NewSimBackend(k)
	s := New(b, Config{})
	v := &s.view
	skips, kept, refused := 0, 0, 0
	for c := 0; c < 3000; c++ {
		n := 1 + rng.Intn(6)
		snap := make([]CloudInfo, n)
		for i := range snap {
			snap[i] = CloudInfo{Name: fmt.Sprintf("c%d", i), FreeCores: rng.Intn(30) - 8,
				TotalCores: 64, Speed: speeds[rng.Intn(len(speeds))], Price: 0.05}
		}
		v.Reset(snap)
		s.relSumAtResv = s.relSumAtResv[:0]
		for range snap {
			s.relSumAtResv = append(s.relSumAtResv, rng.Intn(24))
		}
		s.resv = randomReservation(rng, snap)
		s.holdFit(v)
		tn := &Tenant{Name: "t"}
		for q, size := 0, 1+rng.Intn(8); q < size; q++ {
			j := randomBackfillJob(rng, snap)
			j.seq, j.Spec.CoresPerWorker = q+1, 1+rng.Intn(4)
			if rng.Intn(40) == 0 {
				j.Spec.Run = func(func(error)) {}
			}
			s.enqueue(tn, j)
		}
		for pops := rng.Intn(3); pops > 0 && len(tn.queue) > 1; pops-- {
			tn.scan = rng.Intn(len(tn.queue))
			s.popQueued(tn, tn.queue[tn.scan].job)
		}
		// The maintained summary, then the one queueUnfit may recompute.
		checkQueueSummary(t, tn, c)
		skip := s.queueUnfit(tn, v)
		if skip {
			skips++
		} else {
			kept++
		}
		checkQueueSummary(t, tn, c)
		for _, e := range tn.queue {
			fr := s.fitRow(v, int(e.cpw))
			if skip && int(e.w) <= slotSum(v.free, int(e.cpw)) {
				t.Fatalf("case %d: the summary (minimum demand %d) skips a queue whose %d×%d entry passes the slot test, free %v",
					c, tn.minDemand, e.w, e.cpw, v.free)
			}
			j := e.job
			onEntry := s.backfillDoomed(int(e.w), e.est, fr)
			if j.Spec.External() {
				if onEntry {
					t.Fatalf("case %d: the bound refused an external entry", c)
				}
				continue
			}
			if onJob := s.backfillDoomed(j.workers(), j.estimate(), fr); onEntry != onJob {
				t.Fatalf("case %d: the bound on the entry (w %d, est %v) says %v, on the job (w %d, est %v) %v",
					c, e.w, e.est, onEntry, j.workers(), j.estimate(), onJob)
			}
			if onEntry {
				refused++
			}
		}
	}
	if skips < 200 || kept < 200 || refused < 200 {
		t.Fatalf("%d queues skipped, %d kept, %d entries refused by the bound: too few to test them", skips, kept, refused)
	}
	t.Logf("%d queues skipped, %d kept, %d entries refused by the bound", skips, kept, refused)
}

// randomReservation reserves a single cloud or spans up to three, for a job
// of 1–3 cores per worker, 0–600 s ahead.
func randomReservation(rng *rand.Rand, snap []CloudInfo) *reservation {
	rj := &Job{ID: "head", Spec: JobSpec{CoresPerWorker: 1 + rng.Intn(3)}}
	r := &reservation{job: rj.ID, jref: rj, at: sim.FromSeconds(float64(rng.Intn(600)))}
	for _, p := range rng.Perm(len(snap))[:1+rng.Intn(min(3, len(snap)))] {
		r.plan.Members = append(r.plan.Members, Member{Cloud: snap[p].Name, Workers: 1 + rng.Intn(32)})
	}
	return r
}

// randomBackfillJob draws a queued job: 1–40 workers of 1–3 cores, some
// with progress credit, an input site (possibly outside the view) and
// bytes, and a shuffle volume.
func randomBackfillJob(rng *rand.Rand, snap []CloudInfo) *Job {
	j := &Job{ID: "j", Spec: JobSpec{Tenant: "t", Workers: 1 + rng.Intn(40),
		CoresPerWorker: 1 + rng.Intn(3), EstimateSeconds: float64(1 + rng.Intn(3000))}}
	if rng.Intn(3) == 0 {
		j.creditFrac = 0.9 * rng.Float64()
	}
	if rng.Intn(2) == 0 {
		j.Spec.InputSite = fmt.Sprintf("c%d", rng.Intn(len(snap)+1))
		j.Spec.InputBytes = rng.Int63n(20 << 30)
	}
	if rng.Intn(2) == 0 {
		j.Spec.MR = mapreduce.Job{NumMaps: 1 + rng.Intn(64), NumReduces: 1 + rng.Intn(16),
			ShuffleBytesPerMapPerReduce: rng.Int63n(256 << 20)}
	}
	return j
}

// checkPlanFits fails the test unless the plan is non-empty, names only
// view clouds, each at most once, and fits each in whole workers within its
// working free cores, placing exactly the job's workers.
func checkPlanFits(t *testing.T, j *Job, plan Plan, v *CloudView) {
	t.Helper()
	if plan.Empty() {
		t.Fatalf("Choose returned no plan for %d×%d cores past the slot test, free %v",
			j.workers(), j.coresPerWorker(), v.free)
	}
	seen := map[int]bool{}
	for _, m := range plan.Members {
		p := v.Pos(m.Cloud)
		if p < 0 || seen[p] || m.Workers <= 0 || m.Workers*j.coresPerWorker() > v.free[p] {
			t.Fatalf("plan %v for %d×%d cores does not fit free %v", plan, j.workers(), j.coresPerWorker(), v.free)
		}
		seen[p] = true
	}
	if plan.Workers() != j.workers() {
		t.Fatalf("plan %v places %d workers, the job has %d", plan, plan.Workers(), j.workers())
	}
}
