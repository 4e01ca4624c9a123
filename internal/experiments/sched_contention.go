package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vm"
)

// E10SchedulerContention evaluates the federation-wide job scheduler under
// multi-tenant contention:
//
//   - E10a: two tenants with a 3:1 weight ratio saturate a two-cloud
//     federation with identical jobs (plus periodic wide jobs that block
//     and trigger backfilling); delivered core-second shares must converge
//     to the configured weights.
//   - E10b: data-resident jobs (input pinned at cloud0) run under the
//     locality-aware placement score and under the random baseline; the
//     locality-aware policy must win on mean makespan and WAN traffic.
func E10SchedulerContention(seed int64) []*metrics.Table {
	fair, fairSnap := schedFairShareTable(seed)
	return []*metrics.Table{
		fair,
		fairSnap,
		schedPlacementTable(seed),
	}
}

// schedSnapshot is the shared metrics view every scheduler experiment
// prints: the live registry counters, filtered to deterministic families
// (phase timings are wall-clock and excluded; the fault-transition
// counters are excluded too — these experiments inject no faults, so the
// rows would be constant zeros), so experiment tables cannot drift from
// what the scheduler actually counted.
func schedSnapshot(s *sched.Scheduler, title string) *metrics.Table {
	return obs.SnapshotTable(s.Obs(), title,
		"sky_sched_", "sky_capacity_", "!sky_sched_phase_seconds",
		"!sky_capacity_cloud_failures", "!sky_capacity_cloud_restores")
}

// schedFederation builds the scheduler experiments' small, contended
// federation: two clouds of 4 x 8-core hosts (32 cores each) seeded with the
// debian image, behind WAN links of wan bytes/sec each way, with the
// scheduler enabled under cfg. E10 runs it at 30 MB/s, E12 at 60 MB/s.
func schedFederation(seed int64, wan float64, cfg sched.Config) (*core.Federation, *sched.Scheduler) {
	f := core.NewFederation(seed)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("cloud%d", i)
		cc := cloudConfig(name, 4, 0.08+0.04*float64(i), 1.0)
		cc.WANUp, cc.WANDown = wan, wan
		c := f.AddCloud(cc)
		m := vm.NewContentModel(seed+int64(i)*17, "debian", 0.1, 0.5, 2048)
		c.PutImage(vm.NewDiskImage("debian", 1024, 65536, m))
	}
	f.SetWANLatency("cloud0", "cloud1", 60*sim.Millisecond)
	s := f.EnableScheduler(core.SchedulerOptions{Sched: cfg})
	return f, s
}

func schedFairShareTable(seed int64) (*metrics.Table, *metrics.Table) {
	f, s := schedFederation(seed, 30*mb, sched.Config{})
	s.AddTenant("gold", 3)
	s.AddTenant("silver", 1)
	job := mapreduce.Job{Name: "blast", NumMaps: 32, NumReduces: 1, MapCPU: 30, ReduceCPU: 2}
	ids := map[string][]string{}
	for i := 0; i < 60; i++ {
		for _, tenant := range []string{"gold", "silver"} {
			spec := sched.JobSpec{Tenant: tenant, Name: "j", Workers: 4, CoresPerWorker: 2, MR: job}
			if tenant == "gold" && i%5 == 4 {
				// Periodic wide job: 24 of a cloud's 32 cores — it blocks
				// when the cloud is busy, exercising the backfill path.
				spec.Workers = 12
			}
			id, err := s.Submit(spec)
			if err != nil {
				panic(err)
			}
			ids[tenant] = append(ids[tenant], id)
		}
	}
	// Measure while both tenants still hold a backlog.
	f.K.RunUntil(900 * sim.Second)
	shares := s.Shares()
	entitled := s.EntitledShares()
	t := metrics.NewTable(
		fmt.Sprintf("E10a: weighted fair share under contention, 2 clouds x 32 cores (backfills=%d, cycles=%d)",
			s.Backfills(), s.Cycles()),
		"tenant", "weight", "entitled share", "delivered share", "relative error", "mean wait (s)", "started")
	for _, tenant := range []string{"gold", "silver"} {
		var wait float64
		started := 0
		for _, id := range ids[tenant] {
			if ji, ok := s.Poll(id); ok && ji.State != sched.Queued {
				wait += ji.Wait.Seconds()
				started++
			}
		}
		if started > 0 {
			wait /= float64(started)
		}
		rel := 0.0
		if entitled[tenant] > 0 {
			rel = (shares[tenant] - entitled[tenant]) / entitled[tenant]
			if rel < 0 {
				rel = -rel
			}
		}
		weight := 3.0
		if tenant == "silver" {
			weight = 1.0
		}
		t.AddRowf(tenant, weight, metrics.FmtPct(entitled[tenant]), metrics.FmtPct(shares[tenant]),
			metrics.FmtPct(rel), wait, started)
	}
	return t, schedSnapshot(s, "E10a metrics snapshot (fair-share run)")
}

func schedPlacementTable(seed int64) *metrics.Table {
	t := metrics.NewTable(
		"E10b: locality-aware vs random placement, input resident at cloud0 (12 x 512 MiB-input jobs)",
		"placement", "mean makespan (s)", "on data cloud", "remote", "WAN bytes", "vs locality-aware")
	type row struct {
		label    string
		makespan float64
		local    int
		remote   int
		wan      int64
	}
	var rows []row
	for _, policy := range []sched.PlacementPolicy{sched.BestScore{}, sched.RandomPlacement{}} {
		f, s := schedFederation(seed, 30*mb, sched.Config{Placement: policy})
		s.AddTenant("data", 1)
		var ids []string
		// Jobs arrive every 45 s, so the data cloud usually has room and
		// the placement choice is real (a saturated federation forces the
		// same split under any policy).
		for i := 0; i < 12; i++ {
			f.K.At(sim.Time(i)*45*sim.Second, func() {
				id, err := s.Submit(sched.JobSpec{
					Tenant: "data", Name: "scan", Workers: 4, CoresPerWorker: 2,
					InputSite: "cloud0", InputBytes: 512 * mb,
					MR: mapreduce.Job{Name: "scan", NumMaps: 16, NumReduces: 1,
						MapCPU: 20, ReduceCPU: 2},
				})
				if err != nil {
					panic(err)
				}
				ids = append(ids, id)
			})
		}
		f.K.Run()
		r := row{label: policy.Name()}
		for _, id := range ids {
			ji, _ := s.Poll(id)
			if ji.State != sched.Done {
				panic(fmt.Sprintf("E10b: job %s state %v err %v", id, ji.State, ji.Err))
			}
			r.makespan += ji.Result.Makespan.Seconds()
			if ji.Cloud == "cloud0" {
				r.local++
			} else {
				r.remote++
			}
		}
		r.makespan /= float64(len(ids))
		r.wan = f.Net.TotalWANBytes()
		rows = append(rows, r)
	}
	base := rows[0].makespan
	for _, r := range rows {
		t.AddRowf(r.label, r.makespan, r.local, r.remote, metrics.FmtBytes(r.wan),
			fmt.Sprintf("%.2fx", r.makespan/base))
	}
	return t
}
