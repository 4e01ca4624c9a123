// Package repro's root benchmark harness: one testing.B benchmark per
// experiment in DESIGN.md §4. Each benchmark regenerates its table(s) per
// iteration; run with
//
//	go test -bench=. -benchmem
//
// to reproduce every result. The tables themselves are printed by
// cmd/experiments; here we verify they regenerate and measure harness cost.
package main

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/capacity"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var tables []*metrics.Table
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables = e.Run(42)
	}
	if len(tables) == 0 {
		b.Fatal("no tables produced")
	}
}

func BenchmarkE1SkyComputingScaling(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE1cDataLocality(b *testing.B)        { benchExperiment(b, "E1c") }
func BenchmarkE2ElasticCluster(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3aBroadcastChain(b *testing.B)      { benchExperiment(b, "E3a") }
func BenchmarkE3bCoWStartup(b *testing.B)          { benchExperiment(b, "E3b") }
func BenchmarkE4Shrinker(b *testing.B)             { benchExperiment(b, "E4") }
func BenchmarkE5NetworkTransparency(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkE6PatternDetection(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7AutonomicAdaptation(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkE8ElasticMapReduce(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9MigratableSpot(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkA1RegistryScope(b *testing.B)        { benchExperiment(b, "A1") }
func BenchmarkA2DirtyRateSweep(b *testing.B)       { benchExperiment(b, "A2") }
func BenchmarkA3ChunkSize(b *testing.B)            { benchExperiment(b, "A3") }
func BenchmarkE10SchedulerContention(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkE11GangPlacement(b *testing.B)       { benchExperiment(b, "E11") }
func BenchmarkE12Preemption(b *testing.B)          { benchExperiment(b, "E12") }

// BenchmarkSchedulerCycle measures federation-scheduler throughput: 1000
// queued jobs from four weighted tenants drain through four clouds on the
// synthetic backend (every iteration runs the full queue to completion,
// exercising fair-share ordering, placement scoring, and backfill).
func BenchmarkSchedulerCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(42)
		sb := sched.NewSimBackend(k)
		for c := 0; c < 4; c++ {
			sb.AddCloud(fmt.Sprintf("cloud%d", c), 64, 1.0+0.25*float64(c), 0.08)
		}
		s := sched.New(sb, sched.Config{})
		for t := 0; t < 4; t++ {
			s.AddTenant(fmt.Sprintf("tenant%d", t), float64(t+1))
		}
		for j := 0; j < 1000; j++ {
			spec := sched.JobSpec{
				Tenant:          fmt.Sprintf("tenant%d", j%4),
				Workers:         2,
				CoresPerWorker:  2,
				EstimateSeconds: float64(60 + j%120),
			}
			if j%17 == 0 {
				spec.Workers = 16 // wide jobs force reservations + backfill
			}
			if _, err := s.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
		k.Run()
		if s.Completed() != 1000 {
			b.Fatalf("completed %d of 1000 jobs", s.Completed())
		}
	}
}

// BenchmarkSchedulerSteadyState measures per-decision latency under churn
// rather than batch drain: Poisson arrivals (kernel-RNG exponential
// inter-arrival times, deterministic per seed) at ~80% steady-state
// utilisation over four 64-core clouds, with periodic wide jobs that block
// and exercise the entry slot test — the scenario where most queued jobs
// provably cannot fit and placement must be skipped, not recomputed.
// Reports ns/job across the whole run (every job is one dispatch decision
// plus its share of cycle overhead).
func BenchmarkSchedulerSteadyState(b *testing.B) {
	const jobs = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(42)
		sb := sched.NewSimBackend(k)
		for c := 0; c < 4; c++ {
			sb.AddCloud(fmt.Sprintf("cloud%d", c), 64, 1.0, 0.08)
		}
		s := sched.New(sb, sched.Config{})
		for t := 0; t < 4; t++ {
			s.AddTenant(fmt.Sprintf("tenant%d", t), float64(t+1))
		}
		// Offered load: mostly 4-core jobs (mean ~105 s), every 16th 32
		// cores — ~604 core-seconds per job on average, so one arrival
		// every 3 s keeps ~201 of 256 cores busy (~80%).
		n := 0
		var arrive func()
		arrive = func() {
			spec := sched.JobSpec{
				Tenant:          fmt.Sprintf("tenant%d", n%4),
				Workers:         2,
				CoresPerWorker:  2,
				EstimateSeconds: float64(60 + n%90),
			}
			if n%16 == 0 {
				spec.Workers = 16 // 32 cores: blocks when the system is warm
			}
			if _, err := s.Submit(spec); err != nil {
				b.Fatal(err)
			}
			n++
			if n < jobs {
				k.Schedule(k.ExpJitter(3*sim.Second), arrive)
			}
		}
		k.Schedule(0, arrive)
		k.Run()
		if s.Completed() != jobs {
			b.Fatalf("completed %d of %d jobs", s.Completed(), jobs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}

// BenchmarkSchedulerCycleWide measures the cycle on a wide federation:
// 20 clouds make every single-cloud scan long, 70 tenants make every
// fair-share pick and Shares walk long, and every 17th job is wider than
// any cloud, so spanning gang plans are assembled throughout the drain.
func BenchmarkSchedulerCycleWide(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(42)
		sb := sched.NewSimBackend(k)
		for c := 0; c < 20; c++ {
			sb.AddCloud(fmt.Sprintf("cloud%02d", c), 32, 1.0+0.25*float64(c%4), 0.08)
		}
		s := sched.New(sb, sched.Config{})
		for t := 0; t < 70; t++ {
			s.AddTenant(fmt.Sprintf("tenant%02d", t), float64(t%4+1))
		}
		for j := 0; j < 1000; j++ {
			spec := sched.JobSpec{
				Tenant:          fmt.Sprintf("tenant%02d", j%70),
				Workers:         2,
				CoresPerWorker:  2,
				EstimateSeconds: float64(60 + j%120),
			}
			if j%17 == 0 {
				spec.Workers = 40 // 80 cores, wider than any cloud: spanning plans
			}
			if _, err := s.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
		k.Run()
		if s.Completed() != 1000 {
			b.Fatalf("completed %d of 1000 jobs", s.Completed())
		}
	}
}

// BenchmarkSchedulerEvictionStorm measures the backfill- and
// preemption-heavy cycle mix: a 220-core head blocks behind two long
// holders and reserves, 160 short jobs backfill the slack and overrun 4x,
// and the scheduler reclaims them through both the elastic forced-preempt
// pass and head-driven eviction (pricing plus the what-if prefix fit over
// a ~28-candidate set). internal/sched's TestDecisionsGolden pins the same
// scenario's decision trace.
func BenchmarkSchedulerEvictionStorm(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(13)
		sb := sched.NewSimBackend(k)
		for c := 0; c < 20; c++ {
			sb.AddCloud(fmt.Sprintf("c%02d", c), 16, 1, 0.10)
		}
		sb.Overrun = func(j *sched.Job) float64 {
			switch j.Spec.Name {
			case "lateholder", "small":
				return 4
			}
			return 1
		}
		s := sched.New(sb, sched.Config{EnablePreemption: true})
		s.Start()
		submit := func(tenant string, spec sched.JobSpec) {
			spec.Tenant = tenant
			if _, err := s.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
		s.AddTenant("hold", 1)
		submit("hold", sched.JobSpec{Name: "holder", Workers: 72, CoresPerWorker: 2, EstimateSeconds: 600})
		submit("hold", sched.JobSpec{Name: "lateholder", Workers: 32, CoresPerWorker: 2, EstimateSeconds: 600})
		k.RunUntil(1 * sim.Second)
		s.AddTenant("head", 1)
		submit("head", sched.JobSpec{Name: "head", Workers: 110, CoresPerWorker: 2, EstimateSeconds: 300})
		k.RunUntil(2 * sim.Second)
		jobs := 3
		for t := 0; t < 40; t++ {
			name := fmt.Sprintf("s%02d", t)
			s.AddTenant(name, 1)
			for n := 0; n < 4; n++ {
				submit(name, sched.JobSpec{Name: "small", Workers: 2, CoresPerWorker: 2,
					EstimateSeconds: float64(30 + t%20)})
				jobs++
			}
		}
		k.Run()
		if s.Completed() != jobs {
			b.Fatalf("completed %d of %d jobs", s.Completed(), jobs)
		}
		if s.Preemptions() == 0 || s.ForcedPreemptions() == 0 {
			b.Fatalf("storm evicted nothing (preempt=%d forced=%d); the scenario decayed",
				s.Preemptions(), s.ForcedPreemptions())
		}
	}
}

// BenchmarkKernelChurn measures event-queue operations against a deep
// backlog: 1,000,000 events pend one virtual hour out while each iteration
// schedules two near-term events, cancels one, and fires the other — the
// schedule/cancel/fire churn a million-job replay sustains. The heap keeps
// per-op cost at O(log n) of the backlog (~20 sift steps at 1M) and the
// event arena keeps it allocation-free; a linear scan anywhere in the
// queue path shows up here as microseconds, not nanoseconds.
func BenchmarkKernelChurn(b *testing.B) {
	k := sim.NewKernel(42)
	nop := func() {}
	for i := 0; i < 1_000_000; i++ {
		k.At(sim.Hour+sim.Time(i), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.At(k.Now(), nop).Cancel()
		k.At(k.Now(), nop)
		// One Step discards the cancelled event and fires the live one; the
		// backlog stays at exactly 1M pending throughout.
		k.Step()
	}
	b.StopTimer()
	if k.Pending() != 1_000_000 {
		b.Fatalf("backlog drifted to %d pending", k.Pending())
	}
}

// BenchmarkScaleReplay is the scale harness's headline number: a 100k-job
// standard-mix trace (diurnal + bursts + storms + heavy tails) generated
// once, then replayed through the scheduler on the default four-cloud
// federation with preemption on and log-normal estimate mis-calibration.
// Reports ns/job and allocs/job across the replay; BENCH_scale.json
// records the per-op values for the benchdiff gate. Run with -benchtime 1x
// (one replay is ~100M scheduling decisions' worth of work).
func BenchmarkScaleReplay(b *testing.B) {
	const jobs = 100_000
	tr := workload.Generate(workload.StandardConfig(42, jobs))
	if got := tr.Jobs(); got != jobs {
		b.Fatalf("trace holds %d jobs, want %d", got, jobs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := workload.Replay(tr, workload.ReplayConfig{
			Sched:        sched.Config{EnablePreemption: true},
			OverrunSigma: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Completed < jobs*9/10 {
			b.Fatalf("only %d of %d jobs completed", r.Completed, jobs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}

// BenchmarkScaleReplay1M pushes the replay to the paper's target magnitude:
// one million jobs of the standard mix — the horizon stretches to three
// weeks so the MaxJobs cap can bind (see StandardConfig). CI runs it with
// -benchtime 1x as its own step and gates allocs/op against the
// benchmark's own BENCH_scale.json entry: per-job cost is NOT flat from
// 100k to 1M (the standard mix is overloaded, so the backlog grows for as
// long as arrivals last and the longer trace ends with a far deeper queue,
// which every blocked cycle still walks), so the gate pins the million-job
// number itself instead of extrapolating from the smoke. The survival floor doubles as the
// correctness assertion.
func BenchmarkScaleReplay1M(b *testing.B) {
	if os.Getenv("SCALE_1M") == "" {
		b.Skip("set SCALE_1M=1 to run the million-job replay (CI scale step)")
	}
	const jobs = 1_000_000
	tr := workload.Generate(workload.StandardConfig(42, jobs))
	if got := tr.Jobs(); got != jobs {
		b.Fatalf("trace holds %d jobs, want %d", got, jobs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := workload.Replay(tr, workload.ReplayConfig{
			Sched:        sched.Config{EnablePreemption: true},
			OverrunSigma: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Completed < jobs*9/10 {
			b.Fatalf("only %d of %d jobs completed", r.Completed, jobs)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}

// BenchmarkChaosReplay is the CI chaos smoke: the same 100k-job standard
// mix as BenchmarkScaleReplay with a full outage storm injected — crashes,
// partial host losses, flap episodes, transient deploy faults, WAN
// degradation — replayed with preemption on. Gated on allocs/op against
// BENCH_scale.json: the fault paths (requeue with progress credit,
// quarantine bookkeeping, launch retry) must not turn the steady-state
// allocation discipline into churn. The completion floor is the survival
// assertion — a storm may delay jobs, not lose them.
func BenchmarkChaosReplay(b *testing.B) {
	const jobs = 100_000
	tr := workload.Generate(workload.StandardConfig(42, jobs))
	storm := faults.Generate(faults.Storm(42, faults.Targets(workload.DefaultClouds())))
	tr = storm.InjectInto(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := workload.Replay(tr, workload.ReplayConfig{
			Sched:        sched.Config{EnablePreemption: true},
			OverrunSigma: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Completed < jobs*9/10 {
			b.Fatalf("only %d of %d jobs survived the storm", r.Completed, jobs)
		}
		if r.Outages == 0 || r.OutageRequeues == 0 {
			b.Fatalf("storm replay exercised no outage paths: %+v", r)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}

// BenchmarkGangPlacement measures the plan-based placement pipeline under a
// spanning-heavy load: 300 jobs from two tenants on four 64-core clouds
// with heterogeneous pipes, every fifth job too wide for any single cloud
// (forcing the gang path: anchor selection, greedy member extension, plan
// scoring with the shuffle term, multi-cloud reservations).
func BenchmarkGangPlacement(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(42)
		sb := sched.NewSimBackend(k)
		for c := 0; c < 4; c++ {
			sb.AddCloud(fmt.Sprintf("cloud%d", c), 64, 1.0, 0.06+0.02*float64(c))
		}
		sb.SetBandwidth("cloud0", "cloud1", 100<<20)
		sb.SetBandwidth("cloud0", "cloud2", 10<<20)
		sb.SetBandwidth("cloud0", "cloud3", 40<<20)
		s := sched.New(sb, sched.Config{})
		s.AddTenant("a", 2)
		s.AddTenant("b", 1)
		for j := 0; j < 300; j++ {
			spec := sched.JobSpec{
				Tenant:          []string{"a", "b"}[j%2],
				Workers:         8,
				CoresPerWorker:  2,
				EstimateSeconds: float64(60 + j%90),
			}
			if j%5 == 0 {
				spec.Workers = 40 // 80 cores: wider than any 64-core cloud
				spec.MR = mapreduce.Job{NumMaps: 80, NumReduces: 4, ShuffleBytesPerMapPerReduce: 1 << 20}
			}
			if _, err := s.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
		k.Run()
		if s.Completed() != 300 {
			b.Fatalf("completed %d of 300 jobs", s.Completed())
		}
		if s.SpanningDispatched() == 0 {
			b.Fatal("no spanning plans dispatched")
		}
	}
}

// BenchmarkCapacityLedger measures the unified capacity ledger under a
// federation-scale working set: 1000 concurrently live leases spread over
// 8 clouds, with the operations every scheduling cycle performs — probes
// (each walks its cloud's active leases once per future reservation
// start), acquisitions with estimated ends, future reservations, commits,
// and releases (each found in its cloud's id-ordered lease list).
func BenchmarkCapacityLedger(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := capacity.New()
		for c := 0; c < 8; c++ {
			l.AddCloud(fmt.Sprintf("cloud%d", c), 2048)
		}
		// 64 outstanding backfill-style reservations shade the probes.
		resvs := make([]*capacity.Lease, 0, 64)
		for r := 0; r < 64; r++ {
			le, err := l.Reserve(fmt.Sprintf("cloud%d", r%8), 16, sim.Time(100+r)*sim.Second)
			if err != nil {
				b.Fatal(err)
			}
			resvs = append(resvs, le)
		}
		// 1000 concurrent held leases, probe-vetted like a grow path.
		leases := make([]*capacity.Lease, 0, 1000)
		for n := 0; n < 1000; n++ {
			cloud := fmt.Sprintf("cloud%d", n%8)
			if !l.Probe(cloud, 8, sim.Time(n)*sim.Second) {
				continue
			}
			le, err := l.AcquireUntil(cloud, 8, sim.Time(2000+n)*sim.Second)
			if err != nil {
				b.Fatal(err)
			}
			leases = append(leases, le)
		}
		if len(leases) < 1000 {
			b.Fatalf("only %d of 1000 leases admitted", len(leases))
		}
		// Half the leases commit (VMs placed), then everything drains.
		for n, le := range leases {
			if n%2 == 0 {
				if err := le.Commit(); err != nil {
					b.Fatal(err)
				}
			} else {
				le.Release()
			}
		}
		for n, le := range leases {
			if n%2 == 0 {
				l.Uncommit(le.Cloud, le.Cores)
			}
		}
		for _, le := range resvs {
			le.Release()
		}
		for c := 0; c < 8; c++ {
			if free := l.Free(fmt.Sprintf("cloud%d", c)); free != 2048 {
				b.Fatalf("cloud%d leaked: free=%d", c, free)
			}
		}
	}
}
