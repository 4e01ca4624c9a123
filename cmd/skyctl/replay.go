package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// replayPolicies are the named scheduler-policy bundles a replay can be
// judged under; -policies takes a comma list of these.
var replayPolicies = []struct {
	name string
	cfg  sched.Config
}{
	{"fifo", sched.Config{DisableBackfill: true}},
	{"backfill", sched.Config{}},
	// Reservation aging is audited only on the cycles the trace's events
	// trigger (a replay starts no elastic ticker). Without preemption, the
	// ledger leases an aged reservation drops reach only the growth probes
	// of spot replacements.
	{"aging", sched.Config{ReservationMaxSlips: 3}},
	{"preempt", sched.Config{EnablePreemption: true}},
	// Consolidation runs in the elastic pass, which a replay never starts
	// (workload.Replay does not call Scheduler.Start), so this bundle
	// prints preempt's row exactly.
	{"preempt+consolidate", sched.Config{EnablePreemption: true, EnableConsolidation: true}},
}

// runReplay is the `skyctl replay` subcommand: generate (or load) a
// workload trace and stream it through the scheduler under one or more
// policy bundles, printing the survival table. The scale harness's CLI
// face:
//
//	skyctl replay -jobs 100000 -policies backfill,preempt
//	skyctl replay -gen-only -save trace.jsonl
//	skyctl replay -trace trace.jsonl -policies preempt -cpuprofile cpu.out
//	skyctl replay -jobs 100000 -faults storm
//	skyctl replay -trace trace.jsonl -faults storm.jsonl
func runReplay(args []string) {
	fs := flag.NewFlagSet("skyctl replay", flag.ExitOnError)
	var (
		seed     = fs.Int64("seed", 42, "trace generator seed (and default replay kernel seed)")
		jobs     = fs.Int("jobs", 100_000, "jobs in the generated trace (standard 4-tenant mix)")
		tracePth = fs.String("trace", "", "load this JSONL trace instead of generating")
		savePth  = fs.String("save", "", "save the trace to this path")
		genOnly  = fs.Bool("gen-only", false, "generate/save the trace and exit without replaying")
		policies = fs.String("policies", "preempt", "comma list of policy bundles: fifo, backfill, aging, preempt, preempt+consolidate")
		faultArg = fs.String("faults", "", "inject a fault schedule: 'storm' (seeded outage-storm preset) or a JSONL schedule path")
		sigma    = fs.Float64("overrun-sigma", 0.5, "log-normal estimate-error sigma (0 = exact estimates)")
		mu       = fs.Float64("overrun-mu", 0, "log-normal estimate-error mu")
		snapshot = fs.Bool("metrics", false, "print the scheduler metrics snapshot per policy")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the replay to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile (taken after the replay) to this file")
	)
	fs.Parse(args)

	var tr *workload.Trace
	if *tracePth != "" {
		var err error
		if tr, err = workload.LoadFile(*tracePth); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s: %d events, %d jobs, %d tenants\n",
			*tracePth, len(tr.Events), tr.Jobs(), len(tr.Header.Tenants))
	} else {
		tr = workload.Generate(workload.StandardConfig(*seed, *jobs))
		fmt.Printf("generated standard trace: %d events, %d jobs (seed %d)\n",
			len(tr.Events), tr.Jobs(), *seed)
	}
	if *faultArg != "" {
		var sch *faults.Schedule
		if *faultArg == "storm" {
			sch = faults.Generate(faults.Storm(*seed, faults.Targets(workload.DefaultClouds())))
		} else {
			var err error
			if sch, err = faults.LoadFile(*faultArg); err != nil {
				log.Fatal(err)
			}
		}
		tr = sch.InjectInto(tr)
		fmt.Printf("injected fault schedule %q: %d fault events (seed %d)\n",
			*faultArg, len(sch.Events), sch.Seed)
	}
	if *savePth != "" {
		if err := tr.SaveFile(*savePth); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved trace to %s\n", *savePth)
	}
	if *genOnly {
		return
	}

	stop := startProfiles(*cpuProf, *memProf)
	defer stop()

	cols := []string{"policy", "p50 wait (s)", "p99 wait (s)", "mean wait (s)", "makespan (s)",
		"preempt", "backfills", "revoked", "share err", "done"}
	if *faultArg != "" {
		// The survival table grows the fault axes when a schedule is injected.
		cols = append(cols, "outages", "requeues", "quarantine", "retries")
	}
	t := metrics.NewTable(
		fmt.Sprintf("skyctl replay: %d jobs, overrun sigma=%.2f", tr.Jobs(), *sigma),
		cols...)
	var snaps []*metrics.Table
	for _, name := range strings.Split(*policies, ",") {
		name = strings.TrimSpace(name)
		cfg, ok := sched.Config{}, false
		for _, p := range replayPolicies {
			if p.name == name {
				cfg, ok = p.cfg, true
				break
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "skyctl replay: unknown policy %q\n", name)
			os.Exit(2)
		}
		rc := workload.ReplayConfig{
			Sched:        cfg,
			OverrunMu:    *mu,
			OverrunSigma: *sigma,
		}
		if *snapshot {
			rc.OnFinish = func(s *sched.Scheduler, _ *sched.SimBackend) {
				snaps = append(snaps, obs.SnapshotTable(s.Obs(),
					fmt.Sprintf("scheduler metrics (%s)", name),
					"sky_sched_", "sky_capacity_", "!sky_sched_phase_seconds"))
			}
		}
		r, err := workload.Replay(tr, rc)
		if err != nil {
			log.Fatal(err)
		}
		row := []interface{}{name,
			fmt.Sprintf("%.1f", r.P50WaitSeconds),
			fmt.Sprintf("%.1f", r.P99WaitSeconds),
			fmt.Sprintf("%.1f", r.MeanWaitSeconds),
			fmt.Sprintf("%.0f", r.MakespanSeconds),
			r.Preemptions, r.Backfills, r.SpotRevocations,
			fmt.Sprintf("%.3f", r.ShareErrorMax),
			fmt.Sprintf("%d/%d", r.Completed, r.Jobs)}
		if *faultArg != "" {
			row = append(row, r.Outages, r.OutageRequeues, r.Quarantines, r.LaunchRetries)
		}
		t.AddRowf(row...)
	}
	fmt.Println(t)
	for _, s := range snaps {
		fmt.Println(s)
	}
}
