package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// E13ScaleSurvival replays one seeded heavy-tailed trace (the scale
// harness's standard mix: diurnal peaks, burst episodes, Pareto runtimes,
// revocation storms) under increasingly aggressive policy bundles, with
// log-normal estimate mis-calibration (sigma 0.5) stretching the right
// tail at run time. The survival table shows which combinations hold the
// line as optimism compounds: backfill beats FIFO on p50 but inherits its
// tail — the wide science gangs stay blocked behind overrunning backfills;
// reservation aging alone drops the slipped holds (thousands of agings
// fire, audited only on the cycles the trace's events trigger) yet moves
// no headline number, because without preemption the dropped ledger leases
// reach only the growth probes of spot replacements, so aging is in effect
// only preemption's trigger; preemption spends p50 (victims requeue) to cap
// the p99 wait and pull the makespan in. The consolidate row repeats the
// preempt row exactly: workload.Replay never calls Scheduler.Start, so the
// elastic pass that consolidation runs in (with forced preemption and
// deadline growth) never runs in a replay.
func E13ScaleSurvival(seed int64) []*metrics.Table {
	tr := workload.Generate(workload.StandardConfig(seed, 6000))
	variants := []struct {
		label string
		cfg   sched.Config
	}{
		{"fifo (no backfill)", sched.Config{DisableBackfill: true}},
		{"backfill", sched.Config{}},
		{"backfill+aging", sched.Config{ReservationMaxSlips: 3}},
		{"backfill+preempt", sched.Config{EnablePreemption: true}},
		{"backfill+preempt+consolidate", sched.Config{EnablePreemption: true, EnableConsolidation: true}},
	}
	t := metrics.NewTable(
		fmt.Sprintf("E13: %d-job heavy-tail replay (4 tenants, 4x64-core clouds, log-normal overrun sigma=0.5) — policy survival", tr.Jobs()),
		"policy", "p50 wait (s)", "p99 wait (s)", "makespan (s)", "preempt", "backfills", "share err", "done")
	for _, variant := range variants {
		r, err := workload.Replay(tr, workload.ReplayConfig{
			Sched:        variant.cfg,
			OverrunSigma: 0.5,
		})
		if err != nil {
			panic(fmt.Sprintf("E13: %s: %v", variant.label, err))
		}
		t.AddRowf(variant.label,
			fmt.Sprintf("%.1f", r.P50WaitSeconds),
			fmt.Sprintf("%.1f", r.P99WaitSeconds),
			fmt.Sprintf("%.0f", r.MakespanSeconds),
			r.Preemptions, r.Backfills,
			fmt.Sprintf("%.3f", r.ShareErrorMax),
			fmt.Sprintf("%d/%d", r.Completed, r.Jobs))
	}

	// The same ladder with an outage storm injected: crashes, flaps, and
	// deploy faults hit every policy identically (same seed, same schedule),
	// so the delta against the clean table is pure fault-handling cost. The
	// fault columns replace preempt/backfill detail — under a storm the
	// interesting survival axes are requeue volume and tail damage.
	storm := faults.Generate(faults.Storm(seed, faults.Targets(workload.DefaultClouds())))
	str := storm.InjectInto(tr)
	ts := metrics.NewTable(
		fmt.Sprintf("E13 (storm): same %d-job ladder under an injected outage storm — requeue/quarantine/retry load and tail damage per policy", tr.Jobs()),
		"policy", "p50 wait (s)", "p99 wait (s)", "makespan (s)", "requeues", "retries", "share err", "done")
	for _, variant := range variants {
		r, err := workload.Replay(str, workload.ReplayConfig{
			Sched:        variant.cfg,
			OverrunSigma: 0.5,
		})
		if err != nil {
			panic(fmt.Sprintf("E13 storm: %s: %v", variant.label, err))
		}
		ts.AddRowf(variant.label,
			fmt.Sprintf("%.1f", r.P50WaitSeconds),
			fmt.Sprintf("%.1f", r.P99WaitSeconds),
			fmt.Sprintf("%.0f", r.MakespanSeconds),
			r.OutageRequeues, r.LaunchRetries,
			fmt.Sprintf("%.3f", r.ShareErrorMax),
			fmt.Sprintf("%d/%d", r.Completed, r.Jobs))
	}
	return []*metrics.Table{t, ts}
}
