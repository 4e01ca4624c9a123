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
					if !s.backfillDoomed(j, fr) {
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
