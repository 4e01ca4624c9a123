package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// tableIDs are the paper-reproduction experiments paper-tables runs, in
// registry order. E13 and E14 are left out: they are trace replays, which
// the replay workloads measure.
var tableIDs = []string{
	"E1", "E1c", "E2", "E3a", "E3b", "E4", "E5", "E6", "E7", "E8", "E9",
	"E10", "E11", "E12", "A1", "A2", "A3",
}

// paperSeed is the seed the paper's tables are regenerated at. paper-tables
// always runs the experiments at it, whatever --seed says: the experiments
// allocate differently per seed, which would make its memory figures jump
// between runs without any change to the program.
const paperSeed = 42

// resolveTables looks every ID up in the experiments registry, as
// cmd/experiments does for -run.
func resolveTables() ([]experiments.Experiment, error) {
	exps := make([]experiments.Experiment, len(tableIDs))
	for i, id := range tableIDs {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("experiment %s is not in the registry", id)
		}
		exps[i] = e
	}
	return exps, nil
}

// runExperiment runs one experiment at seed and renders its tables the way
// cmd/experiments prints them, minus the wall-clock footer. A panic counts
// as a failed experiment.
func runExperiment(e experiments.Experiment, seed int64, out *bytes.Buffer) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(out, "## %s panicked: %v\n", e.ID, p)
			ok = false
		}
	}()
	tables := e.Run(seed)
	fmt.Fprintf(out, "## %s — %s\n\n", e.ID, e.Claim)
	for _, t := range tables {
		fmt.Fprintln(out, t.String())
	}
	return len(tables) > 0
}

// runTables is the paper-tables runner: full passes over the experiments at
// paperSeed until the budget is spent (at least one), each pass's
// rendered tables compared byte for byte with the first.
func runTables(r *run) error {
	// Set-up is resolving the experiments through the registry; it takes
	// microseconds, so each sample times a batch of resolutions, and the
	// median sample's time per resolution is reported. Samples are taken
	// before the first pass and again before every pass, so that the
	// median spans the run rather than its first seconds.
	const batch = 100
	var exps []experiments.Experiment
	var setups []float64
	var cal calibrator
	setUpSamples := func(n int) error {
		cal.sample()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			for j := 0; j < batch; j++ {
				var err error
				if exps, err = resolveTables(); err != nil {
					return err
				}
			}
			setups = append(setups, time.Since(t0).Seconds()/batch)
		}
		return nil
	}
	if err := setUpSamples(40); err != nil {
		return err
	}

	if r.traced {
		zeroLayers(r)
	}
	var first []byte
	var passS, tracedPassS []float64
	perExp := make([][]float64, len(exps))
	allocMB := 0.0
	done, attempted := 0, 0
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		var out bytes.Buffer
		if err := setUpSamples(20); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			cal.sample()
		}
		runtime.GC()
		a0 := totalAlloc()
		t0 := time.Now()
		if r.traced && pass%2 == 1 {
			// Traced pass: the same experiments, each timed on its own.
			for i, e := range exps {
				te := time.Now()
				if runExperiment(e, paperSeed, &out) {
					done++
				}
				perExp[i] = append(perExp[i], time.Since(te).Seconds())
			}
			tracedPassS = append(tracedPassS, time.Since(t0).Seconds())
		} else {
			for _, e := range exps {
				if runExperiment(e, paperSeed, &out) {
					done++
				}
			}
			passS = append(passS, time.Since(t0).Seconds())
		}
		attempted += len(exps)
		if pass == 0 {
			allocMB = float64(totalAlloc()-a0) / (1 << 20)
			first = out.Bytes()
		} else if !bytes.Equal(out.Bytes(), first) {
			r.fail("pass %d rendered different tables than pass 1", pass+1)
		}
		elapsed := time.Since(start) + time.Since(passStart)
		if elapsed > r.budget && (!r.traced || len(tracedPassS) > 0) {
			break
		}
	}
	r.rep.Attempted = attempted
	r.rep.Failed = attempted - done
	if done != attempted {
		r.fail("%d of %d experiment runs produced no tables", attempted-done, attempted)
	}
	fmt.Printf("measured: %d experiments x %d passes, pass seconds %.3f, tables %d bytes\n",
		len(exps), len(passS)+len(tracedPassS), passS, len(first))

	if r.traced {
		for i, id := range tableIDs {
			r.set("exp."+id+"_s", minimum(perExp[i]), "s")
		}
		r.set("obs.trace_overhead_frac", minimum(tracedPassS)/minimum(passS)-1, "frac")
		return nil
	}
	// The median pass, as for the replays' traces (see runReplay), at the
	// reference host speed (see calib.go).
	f := cal.factor()
	run := median(passS) * f
	fmt.Printf("raw: setup_s=%.9f run_s=%.6f reference_s=%.6f (%d samples) host_factor=%.4f\n",
		median(setups), median(passS), median(cal.samples), len(cal.samples), f)
	r.set("setup_s", median(setups)*f, "s")
	r.set("run_s", run, "s")
	r.set("jobs_per_s", float64(len(exps))/run, "1/s")
	r.set("alloc_mb", allocMB, "MB")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("done_frac", float64(done)/float64(attempted), "frac")
	return nil
}
