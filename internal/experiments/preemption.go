package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// E12Preemption evaluates revocable placement on the capacity ledger:
//
//   - E12a: a bursty backfill wave with optimistic estimates blocks a wide
//     head job far past its reservation; spot-priced preemption evicts the
//     cheapest subset of the backfilled jobs and the head's makespan
//     improves >= 2x over wait-for-release (the victims requeue with queue
//     position and progress credit and still complete);
//   - E12b: a gang spanning two clouds only because both were partially
//     busy consolidates onto one member when a co-tenant finishes
//     mid-run — live migration over the WAN, ledger cores retargeted —
//     and its cross-site shuffle fraction drops to 0.
func E12Preemption(seed int64) []*metrics.Table {
	preempt, preemptSnap := preemptVsWaitTable(seed)
	return []*metrics.Table{
		preempt,
		preemptSnap,
		consolidationCutTable(seed),
	}
}

// preemptRun drives the E12a workload: two honest 16-core holders (one per
// cloud), a 48-core head job that must span both clouds, and a burst of
// four 8-core backfills whose 50 s estimates hide ~250 s of real map work.
// The head's reservation keeps slipping on their overdue releases; with
// preemption the eviction pass frees exactly enough of them for the gang
// to start.
func preemptRun(seed int64, cfg sched.Config) (head sched.JobInfo, evicted, forced, agings int, victimsDone bool, s *sched.Scheduler) {
	f, sc := schedFederation(seed, 60*mb, cfg)
	sc.AddTenant("batch", 1)
	submit := func(name string, workers int, est float64, mr mapreduce.Job) string {
		id, err := sc.Submit(sched.JobSpec{Tenant: "batch", Name: name, Workers: workers,
			CoresPerWorker: 2, EstimateSeconds: est, MR: mr})
		if err != nil {
			panic(err)
		}
		return id
	}
	mrHold := mapreduce.Job{Name: "hold", NumMaps: 16, NumReduces: 1, MapCPU: 55, ReduceCPU: 1}
	submit("hold0", 8, 60, mrHold)
	submit("hold1", 8, 60, mrHold)
	headID := submit("head", 24, 60, mapreduce.Job{Name: "head", NumMaps: 48, NumReduces: 2,
		MapCPU: 45, ReduceCPU: 2, ShuffleBytesPerMapPerReduce: mb / 4})
	var liars []string
	for i := 0; i < 4; i++ {
		liars = append(liars, submit(fmt.Sprintf("burst%d", i), 4, 50,
			mapreduce.Job{Name: "burst", NumMaps: 16, NumReduces: 1, MapCPU: 120, ReduceCPU: 1}))
	}
	f.K.Run()
	hi, _ := sc.Poll(headID)
	victimsDone = true
	for _, id := range liars {
		ji, _ := sc.Poll(id)
		if ji.State != sched.Done {
			victimsDone = false
		}
	}
	return hi, sc.Preemptions(), sc.ForcedPreemptions(), sc.ReservationAgings(), victimsDone, sc
}

func preemptVsWaitTable(seed int64) (*metrics.Table, *metrics.Table) {
	t := metrics.NewTable(
		"E12a: blocked 48-core head vs 4 optimistic backfills (est 50 s, real ~250 s), 2 x 32-core clouds",
		"policy", "head start (s)", "head makespan (s)", "evicted (head+forced)", "agings", "victims finish", "vs wait")
	type row struct {
		label           string
		start           float64
		makespan        float64
		evicted, forced int
		agings          int
		done            bool
	}
	var rows []row
	var snap *metrics.Table
	for _, variant := range []struct {
		label string
		cfg   sched.Config
	}{
		{"wait-for-release", sched.Config{}},
		{"preempt", sched.Config{EnablePreemption: true}},
	} {
		hi, evicted, forced, agings, done, sc := preemptRun(seed, variant.cfg)
		if hi.State != sched.Done {
			panic(fmt.Sprintf("E12a: %s head state %v err %v", variant.label, hi.State, hi.Err))
		}
		rows = append(rows, row{variant.label, hi.Started.Seconds(),
			(hi.Finished - hi.Submitted).Seconds(), evicted, forced, agings, done})
		if variant.cfg.EnablePreemption {
			snap = schedSnapshot(sc, "E12a metrics snapshot (preempt run)")
		}
	}
	base := rows[0].makespan
	for _, r := range rows {
		t.AddRowf(r.label, fmt.Sprintf("%.1f", r.start), fmt.Sprintf("%.1f", r.makespan),
			fmt.Sprintf("%d+%d", r.evicted-r.forced, r.forced), r.agings, r.done,
			fmt.Sprintf("%.2fx", base/r.makespan))
	}
	return t, snap
}

// consolidationRun drives the E12b workload: fillers take 16 cores on each
// cloud, a 24-worker single-core gang spans cloud0:16 + cloud1:8, and
// cloud0's filler finishes during the gang's map phase — freeing enough of
// the gang's majority cloud for the minority slice to migrate home.
func consolidationRun(seed int64, cfg sched.Config) (sched.JobInfo, *core.Federation, *sched.Scheduler) {
	f, s := schedFederation(seed, 60*mb, cfg)
	s.AddTenant("span", 1)
	mrFill := mapreduce.Job{Name: "fill", NumMaps: 16, NumReduces: 1, MapCPU: 40, ReduceCPU: 1}
	for _, n := range []string{"f0", "f1"} {
		if _, err := s.Submit(sched.JobSpec{Tenant: "span", Name: n, Workers: 8,
			CoresPerWorker: 2, EstimateSeconds: 45, MR: mrFill}); err != nil {
			panic(err)
		}
	}
	gang, err := s.Submit(sched.JobSpec{Tenant: "span", Name: "gang", Workers: 24,
		CoresPerWorker: 1, EstimateSeconds: 260,
		MR: mapreduce.Job{Name: "gang", NumMaps: 48, NumReduces: 4, MapCPU: 120,
			ReduceCPU: 2, ShuffleBytesPerMapPerReduce: mb}})
	if err != nil {
		panic(err)
	}
	f.K.Run()
	ji, _ := s.Poll(gang)
	return ji, f, s
}

func consolidationCutTable(seed int64) *metrics.Table {
	t := metrics.NewTable(
		"E12b: spanning gang (cloud0:16+cloud1:8) when cloud0 frees up mid-run — consolidation vs pinned",
		"policy", "final plan", "cross-site shuffle", "shuffle fraction", "makespan (s)", "migrations")
	for _, variant := range []struct {
		label string
		cfg   sched.Config
	}{
		{"pinned (off)", sched.Config{}},
		{"consolidate", sched.Config{EnableConsolidation: true}},
	} {
		ji, f, _ := consolidationRun(seed, variant.cfg)
		if ji.State != sched.Done {
			panic(fmt.Sprintf("E12b: %s gang state %v err %v", variant.label, ji.State, ji.Err))
		}
		frac := 0.0
		if ji.Result.ShuffleBytes > 0 {
			frac = float64(ji.Result.CrossSiteShuffleBytes) / float64(ji.Result.ShuffleBytes)
		}
		t.AddRowf(variant.label, ji.Plan.String(), metrics.FmtBytes(ji.Result.CrossSiteShuffleBytes),
			metrics.FmtPct(frac), fmt.Sprintf("%.1f", ji.Result.Makespan.Seconds()), f.Migrations)
	}
	return t
}
