package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/workload"
)

// replayConfig is the policy every replay runs under: the `preempt` bundle
// with log-normal overruns at sigma 0.5 on workload.DefaultClouds. No other
// sched.Config knob is set, so ScoreWorkers keeps its sequential default.
func replayConfig() workload.ReplayConfig {
	return workload.ReplayConfig{
		Sched:        sched.Config{EnablePreemption: true},
		OverrunSigma: 0.5,
	}
}

// loaded is one trace after set-up, with the wall time each loader took.
type loaded struct {
	tr      *workload.Trace
	loadS   float64 // workload.LoadFile
	injectS float64 // faults.LoadFile + InjectInto (storm workloads only)
}

// setUp loads one input through the program's loaders.
func setUp(f inputFile) (loaded, error) {
	t0 := time.Now()
	tr, err := workload.LoadFile(f.Trace)
	if err != nil {
		return loaded{}, err
	}
	ld := loaded{tr: tr, loadS: time.Since(t0).Seconds()}
	if f.Faults != "" {
		t1 := time.Now()
		sch, err := faults.LoadFile(f.Faults)
		if err != nil {
			return loaded{}, err
		}
		ld.tr = sch.InjectInto(tr)
		ld.injectS = time.Since(t1).Seconds()
	}
	return ld, nil
}

// runReplay is the runner of the three replay workloads.
func runReplay(r *run, spec replaySpec) error {
	files, fingerprint, err := writeInputs(r, spec)
	if err != nil {
		return err
	}
	checkPin(r, fingerprint)
	// Set-up loads every input once before the replays and, in untraced
	// runs, again before each of its replays, each load from a collected
	// heap and right after a decode-reference sample, so that set-up is
	// timed across the whole run rather than in its first seconds.
	ins := make([]loaded, len(files))
	loads := make([][]float64, len(files))
	var cal calibrator
	dec, err := newDecodeRef(inputDir)
	if err != nil {
		return err
	}
	for i, f := range files {
		cal.due()
		runtime.GC()
		if err := dec.sample(); err != nil {
			return err
		}
		if ins[i], err = setUp(f); err != nil {
			return err
		}
		loads[i] = append(loads[i], ins[i].loadS+ins[i].injectS)
	}
	if r.traced {
		return tracedReplays(r, spec, ins)
	}

	cfg := replayConfig()
	n := len(ins)
	results := make([]workload.Result, n)
	walls := make([][]float64, n)
	allocMB := make([]float64, n)
	rounds := 0
	start := time.Now()
	for {
		roundStart := time.Now()
		for i, in := range ins {
			cal.due()
			runtime.GC()
			if err := dec.sample(); err != nil {
				return err
			}
			ld, err := setUp(files[i])
			if err != nil {
				return err
			}
			loads[i] = append(loads[i], ld.loadS+ld.injectS)
			runtime.GC() // every replay starts from the same heap state
			a0 := totalAlloc()
			t0 := time.Now()
			res, err := workload.Replay(in.tr, cfg)
			d := time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("replay trace %d: %w", i, err)
			}
			walls[i] = append(walls[i], d)
			r.rep.Attempted += res.Jobs
			r.rep.Failed += failedJobs(spec, res)
			if rounds == 0 {
				allocMB[i] = float64(totalAlloc()-a0) / (1 << 20)
				results[i] = res
				checkResult(r, i, in.tr, res)
			} else if res != results[i] {
				r.fail("trace %d: replay %d returned %+v, first replay %+v", i, rounds+1, res, results[i])
			}
		}
		rounds++
		if time.Since(start)+time.Since(roundStart) > r.budget {
			break
		}
	}
	if rounds == 1 {
		// One round filled the budget: replay the quickest trace once more,
		// untimed, so every run still checks that a seed's Result repeats.
		q := 0
		for i := range walls {
			if walls[i][0] < walls[q][0] {
				q = i
			}
		}
		if res, err := workload.Replay(ins[q].tr, cfg); err != nil || res != results[q] {
			r.fail("trace %d: second replay returned %+v (err %v), first %+v", q, res, err, results[q])
		}
	}

	checkStorm(r, spec, results)
	// Each trace's cost is its median replay in the run, and each input's
	// set-up its mean load; calibration (calib.go) divides out how busy the
	// host was. The fastest replay was steadier only while the host was
	// quiet: under load, the fastest of a handful of replays fell anywhere
	// in a band a third wide.
	perTrace := make([]float64, n)
	setups := make([]float64, n)
	for i := range walls {
		perTrace[i] = median(walls[i])
		setups[i] = mean(loads[i])
	}
	completed, submitted := 0, 0
	for _, res := range results {
		completed += res.Completed
		submitted += res.Jobs
	}
	fmt.Printf("measured: %d traces x %d rounds, per-trace median replay seconds %.4f\n", n, rounds, perTrace)
	printSurvival(results)

	// Means over the trace set, not medians: the set is fixed per seed, and
	// its mean moves less between seeds than its middle trace does. Times
	// are at the reference host speed (see calib.go).
	// Replay times are scaled by the geometric mean of the two references'
	// factors: over 15 runs each, replay time over the replay kernel alone
	// varied by 1.8–5.6% between runs, over both by 0.9–4.0%.
	fd := dec.factor()
	f := math.Sqrt(cal.factor() * fd)
	fmt.Printf("raw: setup_s=%.6f run_s=%.6f reference_s=%.6f (%d samples) decode_s=%.6f (%d samples) setup_factor=%.4f host_factor=%.4f\n",
		median(setups), sum(perTrace)/float64(n), median(cal.samples), len(cal.samples),
		mean(dec.samples), len(dec.samples), fd, f)
	r.set("setup_s", median(setups)*fd, "s")
	r.set("run_s", sum(perTrace)/float64(n)*f, "s")
	r.set("jobs_per_s", float64(completed)/(sum(perTrace)*f), "1/s")
	r.set("alloc_mb", sum(allocMB)/float64(n), "MB")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("done_frac", float64(completed)/float64(submitted), "frac")
	return nil
}

// checkResult applies the per-replay output checks.
func checkResult(r *run, i int, tr *workload.Trace, res workload.Result) {
	if res.Completed+res.Failed+res.Unfinished != res.Jobs {
		r.fail("trace %d: completed %d + failed %d + unfinished %d != submitted %d",
			i, res.Completed, res.Failed, res.Unfinished, res.Jobs)
	}
	if want := tr.Jobs(); res.Jobs != want {
		r.fail("trace %d: %d of %d submissions accepted", i, res.Jobs, want)
	}
	if res.Jobs == 0 || float64(res.Completed) < 0.9*float64(res.Jobs) {
		r.fail("trace %d: done fraction %d/%d below 0.9", i, res.Completed, res.Jobs)
	}
}

// failedJobs is how many of one replay's jobs the run counts as failed: those
// left unfinished, plus those that ended failed on a workload without
// injected faults. Under a storm the scheduler fails a job when an outage
// leaves no plan that can ever fit it, or its launches keep faulting; that
// is the fault path's correct answer, and done_frac reports it.
func failedJobs(spec replaySpec, res workload.Result) int {
	if spec.Storm {
		return res.Unfinished
	}
	return res.Failed + res.Unfinished
}

// checkStorm requires a storm workload's run to record at least one outage
// and one outage requeue over its traces.
func checkStorm(r *run, spec replaySpec, results []workload.Result) {
	outages, requeues := 0, 0
	for _, res := range results {
		outages += res.Outages
		requeues += res.OutageRequeues
	}
	if spec.Storm && (outages < 1 || requeues < 1) {
		r.fail("storm replays recorded %d outages and %d requeues, want at least one each", outages, requeues)
	}
}

// survival reduces the replays' virtual-time outputs to their medians over
// the trace set. They repeat exactly for a seed.
func survival(results []workload.Result) (p50, p99, makespan, shareErr float64) {
	var a, b, c, d []float64
	for _, res := range results {
		a = append(a, res.P50WaitSeconds)
		b = append(b, res.P99WaitSeconds)
		c = append(c, res.MakespanSeconds)
		d = append(d, res.ShareErrorMax)
	}
	return median(a), median(b), median(c), median(d)
}

func printSurvival(results []workload.Result) {
	for i, res := range results {
		fmt.Printf("survival: trace=%d jobs=%d done=%d failed=%d unfinished=%d wait_p50_s=%.1f wait_p99_s=%.1f makespan_s=%.0f share_err=%.4f preempt=%d outages=%d requeues=%d\n",
			i, res.Jobs, res.Completed, res.Failed, res.Unfinished, res.P50WaitSeconds, res.P99WaitSeconds,
			res.MakespanSeconds, res.ShareErrorMax, res.Preemptions, res.Outages, res.OutageRequeues)
	}
	p50, p99, mk, se := survival(results)
	fmt.Printf("survival: median over traces wait_p50_s=%.1f wait_p99_s=%.1f makespan_s=%.0f share_err=%.4f (virtual time)\n",
		p50, p99, mk, se)
}
