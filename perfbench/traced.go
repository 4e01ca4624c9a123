package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// perLayer is every per-layer metric a traced run reports, in NOTES.md
// order. A metric whose layer the workload never reaches reads 0.
var perLayer = append([]struct{ name, unit string }{
	{"workload.load_s", "s"}, {"workload.events", "count"}, {"faults.inject_s", "s"},
	{"sim.events_fired", "count"}, {"sim.other_step_s", "s"}, {"sim.ns_per_event", "ns"},
	{"sched.cycles", "count"}, {"sched.cycle_s", "s"},
	{"sched.cycle_p50_us", "us"}, {"sched.cycle_p99_us", "us"},
	{"sched.placement_s", "s"}, {"sched.backfill_s", "s"}, {"sched.preemption_s", "s"},
	{"sched.queue_depth_mean", "jobs"}, {"sched.cycle_ns_per_queued_job", "ns"},
	{"sched.idle_cycle_frac", "frac"},
	{"sched.submit_s", "s"}, {"sched.submit_ns_per_job", "ns"}, {"sched.notify_s", "s"},
	{"sched.dispatched", "count"}, {"sched.backfills", "count"}, {"sched.preemptions", "count"},
	{"sched.plan_memo_hits", "count"}, {"sched.resv_cache_hits", "count"},
	{"sched.view_seals", "count"}, {"sched.resv_hold_reuses", "count"},
	{"sched.wait_p50_s", "s"}, {"sched.wait_p99_s", "s"}, {"sched.makespan_s", "s"},
	{"sched.share_err", "frac"},
	{"capacity.probes", "count"}, {"capacity.acquires", "count"}, {"capacity.reserves", "count"},
	{"capacity.probes_per_dispatch", "ratio"}, {"capacity.evictions", "count"},
	{"capacity.cloud_failures", "count"},
	{"faults.outages", "count"}, {"faults.outage_requeues", "count"},
	{"faults.quarantines", "count"}, {"faults.launch_retries", "count"},
	{"obs.trace_overhead_frac", "frac"},
}, expMetrics()...)

func expMetrics() []struct{ name, unit string } {
	out := make([]struct{ name, unit string }, len(tableIDs))
	for i, id := range tableIDs {
		out[i].name, out[i].unit = "exp."+id+"_s", "s"
	}
	return out
}

// zeroLayers presets every per-layer metric to 0 before a traced run fills
// in the layers its workload reaches.
func zeroLayers(r *run) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
}

// layerStats is what one traced replay observed, timed from outside the
// program: around kernel Steps, Submit and Notify, plus the program's own
// counters and registries.
type layerStats struct {
	callS float64 // the whole traced replay, set-up and reduction included

	fired      uint64
	otherSteps int64
	otherNs    int64 // Steps that ran no scheduling cycle
	cycleNs    int64
	cycleDur   []int64 // ns per cycle Step
	queueSum   int64   // QueueLen sampled before each cycle, summed
	idleCycles int64   // cycles that dispatched nothing
	submits    int64
	submitNs   int64
	notifyNs   int64
	phases     map[string]float64 // sky_sched_phase_seconds sums by phase
	counts     map[string]int64   // scheduler, fault and ledger counters by metric name
}

// tracedReplay replays tr exactly as workload.Replay does, built only from
// public calls — sim.Kernel.Step, Scheduler.Submit/Notify, SimBackend's
// fault calls — and times each layer from outside. It must return the same
// Result as workload.Replay; tracedReplays asserts that.
func tracedReplay(tr *workload.Trace, cfg workload.ReplayConfig) (workload.Result, layerStats, error) {
	callStart := time.Now()
	var ls layerStats
	k := sim.NewKernel(tr.Header.Seed)
	b := sched.NewSimBackend(k)
	for _, c := range workload.DefaultClouds() {
		b.AddCloud(c.Name, c.Cores, c.Speed, c.Price)
	}
	if cfg.OverrunSigma > 0 {
		b.UseLogNormalOverrun(cfg.OverrunMu, cfg.OverrunSigma)
	}
	s := sched.New(b, cfg.Sched)
	// The ledger's counters join the scheduler's registry in traced runs
	// only; untimed runs keep the uninstrumented ledger users get.
	b.Ledger().Instrument(s.Obs())
	for _, t := range tr.Header.Tenants {
		s.AddTenant(t.Name, t.Weight)
	}

	var res workload.Result
	ids := make([]string, 0, len(tr.Events))
	var spotLive []string
	var replayErr error
	note := func(err error) {
		if replayErr == nil {
			replayErr = err
		}
	}
	notify := func(ev sched.Event) {
		t0 := time.Now()
		s.Notify(ev)
		ls.notifyNs += int64(time.Since(t0))
	}
	var partialLost map[string]int
	var baseBW map[[2]string]float64
	process := func(ev *workload.Event) {
		switch ev.Kind {
		case workload.KindSubmit:
			t0 := time.Now()
			id, err := s.Submit(sched.JobSpec{
				Tenant:          ev.Tenant,
				Name:            ev.Name,
				Workers:         ev.Workers,
				CoresPerWorker:  ev.Cores,
				EstimateSeconds: ev.EstimateSeconds,
				Spot:            ev.Spot,
				Bid:             ev.Bid,
			})
			ls.submitNs += int64(time.Since(t0))
			ls.submits++
			if err != nil {
				note(fmt.Errorf("submit %s: %w", ev.Name, err))
				return
			}
			res.Jobs++
			ids = append(ids, id)
			if ev.Spot {
				spotLive = append(spotLive, id)
			}
		case workload.KindRevoke:
			struck := 0
			live := spotLive[:0]
			for _, id := range spotLive {
				ji, ok := s.Poll(id)
				if !ok || ji.State == sched.Done || ji.State == sched.Failed {
					continue
				}
				live = append(live, id)
				if ji.State != sched.Running {
					continue
				}
				if ev.Strikes > 0 && struck >= ev.Strikes {
					continue
				}
				for _, m := range ji.Plan.Members {
					if m.Cloud == ev.Cloud {
						notify(sched.Event{Kind: sched.EventSpotRevoked, Job: id, Cloud: ev.Cloud})
						struck++
						break
					}
				}
			}
			spotLive = live
		case workload.KindOutage:
			if ev.Partial > 0 {
				c := b.Cloud(ev.Cloud)
				if c == nil {
					note(fmt.Errorf("outage on unknown cloud %q", ev.Cloud))
					return
				}
				if partialLost == nil {
					partialLost = make(map[string]int)
				}
				total := c.Total()
				lost := ev.Partial
				if lost >= total {
					lost = total - 1
				}
				if lost <= 0 || partialLost[ev.Cloud] > 0 {
					return
				}
				partialLost[ev.Cloud] = lost
				c.SetTotal(total - lost)
				return
			}
			if _, err := b.FailCloud(ev.Cloud); err != nil {
				note(fmt.Errorf("outage: %w", err))
				return
			}
			notify(sched.Event{Kind: sched.EventCloudFailed, Cloud: ev.Cloud})
		case workload.KindRestore:
			if lost := partialLost[ev.Cloud]; lost > 0 {
				delete(partialLost, ev.Cloud)
				c := b.Cloud(ev.Cloud)
				c.SetTotal(c.Total() + lost)
				notify(sched.Event{Kind: sched.EventCloudRestored, Cloud: ev.Cloud})
				return
			}
			if err := b.RestoreCloud(ev.Cloud); err != nil {
				note(fmt.Errorf("restore: %w", err))
				return
			}
			notify(sched.Event{Kind: sched.EventCloudRestored, Cloud: ev.Cloud})
		case workload.KindDegrade:
			if baseBW == nil {
				baseBW = make(map[[2]string]float64)
			}
			key := [2]string{ev.Cloud, ev.Peer}
			if ev.Factor >= 1 {
				if base, ok := baseBW[key]; ok {
					b.SetBandwidth(ev.Cloud, ev.Peer, base)
					delete(baseBW, key)
				}
				return
			}
			base, ok := baseBW[key]
			if !ok {
				base = b.Bandwidth(ev.Cloud, ev.Peer)
				baseBW[key] = base
			}
			b.SetBandwidth(ev.Cloud, ev.Peer, base*ev.Factor)
		case workload.KindDeployFault:
			strikes := ev.Strikes
			if strikes <= 0 {
				strikes = 1
			}
			b.FailNextLaunches(ev.Cloud, strikes)
		}
	}
	// Chain-inject one timestamp's events per kernel event, as Replay does.
	var inject func(i int)
	inject = func(i int) {
		at := tr.Events[i].At
		for i < len(tr.Events) && tr.Events[i].At == at {
			process(&tr.Events[i])
			i++
		}
		if i < len(tr.Events) {
			next := i
			k.At(sim.Time(tr.Events[next].At), func() { inject(next) })
		}
	}
	if len(tr.Events) > 0 {
		k.At(sim.Time(tr.Events[0].At), func() { inject(0) })
	}

	// clock reads only the monotonic clock (time.Since's fast path), once per
	// Step: each Step's interval runs from the previous Step's end reading to
	// its own, so the loop's time is split between the Steps with none left
	// over, and the counters read after one Step serve as the next Step's
	// before-values.
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	queued, cycles, dispatched := s.QueueLen(), s.Cycles(), s.Dispatched()
	t0 := clock()
	for k.Step() {
		t1 := clock()
		d := t1 - t0
		t0 = t1
		if c := s.Cycles(); c != cycles {
			cycles = c
			ls.cycleNs += d
			ls.cycleDur = append(ls.cycleDur, d)
			ls.queueSum += int64(queued)
			if s.Dispatched() == dispatched {
				ls.idleCycles++
			}
		} else {
			ls.otherNs += d
			ls.otherSteps++
		}
		queued, dispatched = s.QueueLen(), s.Dispatched()
	}
	if replayErr != nil {
		return workload.Result{}, ls, fmt.Errorf("workload: %w", replayErr)
	}

	// Reduce exactly as workload.Replay does.
	waits := make([]float64, 0, len(ids))
	for _, id := range ids {
		ji, ok := s.Poll(id)
		if !ok {
			continue
		}
		switch ji.State {
		case sched.Done:
			res.Completed++
			waits = append(waits, (ji.Started - ji.Submitted).Seconds())
			if fin := ji.Finished.Seconds(); fin > res.MakespanSeconds {
				res.MakespanSeconds = fin
			}
		case sched.Failed:
			res.Failed++
		default:
			res.Unfinished++
		}
	}
	if len(waits) > 0 {
		sort.Float64s(waits)
		var total float64
		for _, w := range waits {
			total += w
		}
		res.MeanWaitSeconds = total / float64(len(waits))
		res.P50WaitSeconds = nearestRank(waits, 0.50)
		res.P99WaitSeconds = nearestRank(waits, 0.99)
		res.MaxWaitSeconds = waits[len(waits)-1]
	}
	res.Backfills = s.Backfills()
	res.Preemptions = s.Preemptions()
	res.SpotRevocations = s.SpotRevocations()
	res.Consolidations = s.Consolidations()
	res.Outages = s.Outages()
	res.OutageRequeues = s.OutageRequeues()
	res.Quarantines = s.Quarantines()
	res.LaunchRetries = s.LaunchRetries()
	shares, entitled := s.Shares(), s.EntitledShares()
	for _, t := range tr.Header.Tenants {
		if e := shares[t.Name] - entitled[t.Name]; e > res.ShareErrorMax {
			res.ShareErrorMax = e
		} else if -e > res.ShareErrorMax {
			res.ShareErrorMax = -e
		}
	}
	ls.callS = time.Since(callStart).Seconds()

	ls.fired = k.Fired()
	ls.phases = make(map[string]float64)
	for key, v := range s.Obs().Snapshot() {
		if rest, ok := strings.CutPrefix(key, "sky_sched_phase_seconds_sum{phase=\""); ok {
			if phase, _, ok := strings.Cut(rest, "\""); ok {
				ls.phases[phase] += v
			}
		}
	}
	reg := s.Obs()
	ls.counts = map[string]int64{
		"sched.dispatched":        int64(s.Dispatched()),
		"sched.backfills":         int64(s.Backfills()),
		"sched.preemptions":       int64(s.Preemptions()),
		"sched.plan_memo_hits":    int64(s.PlanMemoHits()),
		"sched.resv_cache_hits":   int64(s.ResvCacheHits()),
		"sched.view_seals":        int64(s.ViewSeals()),
		"sched.resv_hold_reuses":  int64(s.ResvHoldReuses()),
		"faults.outages":          int64(s.Outages()),
		"faults.outage_requeues":  int64(s.OutageRequeues()),
		"faults.quarantines":      int64(s.Quarantines()),
		"faults.launch_retries":   int64(s.LaunchRetries()),
		"capacity.probes":         int64(reg.Value("sky_capacity_probes_total")),
		"capacity.acquires":       int64(reg.Value("sky_capacity_acquires_total")),
		"capacity.reserves":       int64(reg.Value("sky_capacity_reserves_total")),
		"capacity.evictions":      int64(reg.Value("sky_capacity_evictions_total")),
		"capacity.cloud_failures": int64(reg.Value("sky_capacity_cloud_failures_total")),
	}
	return res, ls, nil
}

// nearestRank is workload.Replay's percentile: nearest rank over sorted
// values.
func nearestRank(sorted []float64, p float64) float64 {
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tracedReplays is a traced replay workload run: each trace is replayed by
// workload.Replay (untraced) and by tracedReplay, in rounds until the budget
// is spent (at least one). The traced replay must reproduce Replay's Result
// field for field, and the first round's cycle and non-cycle Step times must
// add up to its traced replays' wall time within 5%.
func tracedReplays(r *run, spec replaySpec, ins []loaded) error {
	zeroLayers(r)
	cfg := replayConfig()
	n := len(ins)
	untraced := make([][]float64, n)
	traced := make([][]float64, n)
	results := make([]workload.Result, n)
	stats := make([]layerStats, n)
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		for i, in := range ins {
			runtime.GC()
			t0 := time.Now()
			ures, err := workload.Replay(in.tr, cfg)
			untraced[i] = append(untraced[i], time.Since(t0).Seconds())
			if err != nil {
				return fmt.Errorf("replay trace %d: %w", i, err)
			}
			runtime.GC()
			tres, ls, err := tracedReplay(in.tr, cfg)
			if err != nil {
				return fmt.Errorf("traced replay trace %d: %w", i, err)
			}
			traced[i] = append(traced[i], ls.callS)
			r.rep.Attempted += 2 * ures.Jobs
			r.rep.Failed += failedJobs(spec, ures) + failedJobs(spec, tres)
			if tres != ures {
				r.fail("trace %d: traced replay returned %+v, workload.Replay %+v", i, tres, ures)
			}
			if round == 0 {
				results[i], stats[i] = ures, ls
				checkResult(r, i, in.tr, ures)
			} else if ures != results[i] {
				r.fail("trace %d: replay %d returned %+v, first replay %+v", i, round+1, ures, results[i])
			}
		}
		if time.Since(start)+time.Since(roundStart) > r.budget {
			break
		}
	}
	checkStorm(r, spec, results)
	printSurvival(results)

	var agg layerStats
	agg.phases = make(map[string]float64)
	agg.counts = make(map[string]int64)
	var callS float64
	for _, ls := range stats {
		callS += ls.callS
		agg.fired += ls.fired
		agg.otherSteps += ls.otherSteps
		agg.otherNs += ls.otherNs
		agg.cycleNs += ls.cycleNs
		agg.cycleDur = append(agg.cycleDur, ls.cycleDur...)
		agg.queueSum += ls.queueSum
		agg.idleCycles += ls.idleCycles
		agg.submits += ls.submits
		agg.submitNs += ls.submitNs
		agg.notifyNs += ls.notifyNs
		for k, v := range ls.phases {
			agg.phases[k] += v
		}
		for k, v := range ls.counts {
			agg.counts[k] += v
		}
	}
	var loadS, injectS, events float64
	for _, in := range ins {
		loadS += in.loadS
		injectS += in.injectS
		events += float64(len(in.tr.Events))
	}
	cycles := float64(len(agg.cycleDur))
	parts := float64(agg.cycleNs+agg.otherNs) * 1e-9
	fmt.Printf("traced: %d traces, replays %.3fs = cycles %.3fs + other steps %.3fs (%.2f%% unaccounted)\n",
		n, callS, float64(agg.cycleNs)*1e-9, float64(agg.otherNs)*1e-9, 100*(callS-parts)/callS)
	if gap := math.Abs(parts-callS) / callS; gap > 0.05 {
		r.fail("cycle + non-cycle Step time %.3fs is %.1f%% off the traced replays' %.3fs", parts, 100*gap, callS)
	}

	r.set("workload.load_s", loadS, "s")
	r.set("workload.events", events, "count")
	r.set("faults.inject_s", injectS, "s")
	r.set("sim.events_fired", float64(agg.fired), "count")
	r.set("sim.other_step_s", float64(agg.otherNs)*1e-9, "s")
	r.set("sim.ns_per_event", ratio(float64(agg.otherNs), float64(agg.otherSteps)), "ns")
	r.set("sched.cycles", cycles, "count")
	r.set("sched.cycle_s", float64(agg.cycleNs)*1e-9, "s")
	sort.Slice(agg.cycleDur, func(i, j int) bool { return agg.cycleDur[i] < agg.cycleDur[j] })
	if len(agg.cycleDur) > 0 {
		r.set("sched.cycle_p50_us", float64(agg.cycleDur[len(agg.cycleDur)/2])/1e3, "us")
		r.set("sched.cycle_p99_us", float64(agg.cycleDur[len(agg.cycleDur)*99/100])/1e3, "us")
	}
	r.set("sched.placement_s", agg.phases["placement"], "s")
	r.set("sched.backfill_s", agg.phases["backfill"], "s")
	r.set("sched.preemption_s", agg.phases["preemption"], "s")
	r.set("sched.queue_depth_mean", ratio(float64(agg.queueSum), cycles), "jobs")
	r.set("sched.cycle_ns_per_queued_job", ratio(float64(agg.cycleNs), float64(agg.queueSum)), "ns")
	r.set("sched.idle_cycle_frac", ratio(float64(agg.idleCycles), cycles), "frac")
	r.set("sched.submit_s", float64(agg.submitNs)*1e-9, "s")
	r.set("sched.submit_ns_per_job", ratio(float64(agg.submitNs), float64(agg.submits)), "ns")
	r.set("sched.notify_s", float64(agg.notifyNs)*1e-9, "s")
	for name, v := range agg.counts {
		r.set(name, float64(v), "count")
	}
	r.set("capacity.probes_per_dispatch",
		ratio(float64(agg.counts["capacity.probes"]), float64(agg.counts["sched.dispatched"])), "ratio")
	p50, p99, mk, se := survival(results)
	r.set("sched.wait_p50_s", p50, "s")
	r.set("sched.wait_p99_s", p99, "s")
	r.set("sched.makespan_s", mk, "s")
	r.set("sched.share_err", se, "frac")
	var tracedS, untracedS float64
	for i := range ins {
		tracedS += minimum(traced[i])
		untracedS += minimum(untraced[i])
	}
	r.set("obs.trace_overhead_frac", tracedS/untracedS-1, "frac")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
