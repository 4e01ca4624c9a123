package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workload"
)

// replaySpec is one replay workload's input recipe. Every run replays the
// same fixed set of traces for its seed: Traces independent traces, each
// capped at Jobs submissions within Horizon, drawn from the benchmark's copy
// of the standard 4-tenant mix with every arrival rate scaled by RateScale.
// Storm injects a faults.Storm schedule over the same horizon into each.
type replaySpec struct {
	Name      string
	Jobs      int
	RateScale float64
	Horizon   sim.Time
	Traces    int
	Storm     bool
}

var (
	replayPeak = replaySpec{
		Name: "replay-peak", Jobs: 2_000, RateScale: 2.5, Horizon: 3 * sim.Hour, Traces: 24,
	}
	replayLight = replaySpec{
		Name: "replay-light", Jobs: 4_000, RateScale: 0.2, Horizon: 24 * sim.Hour, Traces: 24,
	}
	replayChaos = replaySpec{
		Name: "replay-chaos", Jobs: 2_000, RateScale: 2.5, Horizon: 3 * sim.Hour, Traces: 24, Storm: true,
	}
)

// mix is the benchmark's own copy of the standard scale-harness mix
// (workload.StandardConfig's tenant and storm profiles), so a change to that
// function's horizon rule or profiles cannot silently change what the
// benchmark measures. Only the arrival rates are scaled.
func mix(seed int64, spec replaySpec) workload.Config {
	tenants := []workload.TenantProfile{
		{
			Name: "ana", Weight: 3, BaseRatePerHour: 900,
			DiurnalAmplitude: 0.6, PeakHour: 14,
			WorkersLogMean: 0.7, WorkersLogSigma: 0.6, MaxWorkers: 16,
			MinSeconds: 20, ParetoAlpha: 2.2, MaxSeconds: 1200,
		},
		{
			Name: "etl", Weight: 2, BaseRatePerHour: 450,
			DiurnalAmplitude: 0.5, PeakHour: 2,
			WorkersLogMean: 1.4, WorkersLogSigma: 0.7, MaxWorkers: 48,
			MinSeconds: 45, ParetoAlpha: 1.6, MaxSeconds: 7200,
			BurstRatePerHour: 0.5, BurstFactor: 3, BurstMeanMinutes: 15,
		},
		{
			Name: "sci", Weight: 1, BaseRatePerHour: 120,
			DiurnalAmplitude: 0.3, PeakHour: 9,
			WorkersLogMean: 2.3, WorkersLogSigma: 0.6, MaxWorkers: 96,
			MinSeconds: 120, ParetoAlpha: 1.4, MaxSeconds: 14400,
			BurstRatePerHour: 0.25, BurstFactor: 4, BurstMeanMinutes: 20,
		},
		{
			Name: "spot", Weight: 1, BaseRatePerHour: 500,
			DiurnalAmplitude: 0.2, PeakHour: 20,
			WorkersLogMean: 1.0, WorkersLogSigma: 0.5, MaxWorkers: 24,
			MinSeconds: 30, ParetoAlpha: 1.8, MaxSeconds: 3600,
			SpotFraction: 0.8, SpotBid: 0.05,
		},
	}
	for i := range tenants {
		tenants[i].BaseRatePerHour *= spec.RateScale
	}
	return workload.Config{
		Seed:        seed,
		Description: "perfbench " + spec.Name,
		Horizon:     spec.Horizon,
		MaxJobs:     spec.Jobs,
		Tenants:     tenants,
		Storms: workload.StormProfile{
			RatePerHour: 1.5,
			Clouds:      []string{"cloud0", "cloud1", "cloud2", "cloud3"},
			MaxStrikes:  8,
		},
	}
}

// traceSeed derives trace i's generator seed from the workload seed; the
// fault schedule of a chaos trace uses the same seed.
func traceSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// inputFile is one generated input on disk: a job trace and, for storm
// workloads, its fault schedule.
type inputFile struct {
	Trace, Faults string
}

// writeInputs generates the run's traces (and fault schedules), writes them
// under inputDir, and returns their paths plus the sha256 of all their bytes in
// order — the input fingerprint pinned per (workload, seed).
func writeInputs(r *run, spec replaySpec) ([]inputFile, string, error) {
	h := sha256.New()
	files := make([]inputFile, spec.Traces)
	for i := range files {
		ts := traceSeed(r.seed, i)
		base := filepath.Join(inputDir, fmt.Sprintf("%s-%d-%d", spec.Name, r.seed, i))
		files[i].Trace = base + ".jsonl"
		if err := workload.Generate(mix(ts, spec)).SaveFile(files[i].Trace); err != nil {
			return nil, "", err
		}
		if err := hashFile(h, files[i].Trace); err != nil {
			return nil, "", err
		}
		if spec.Storm {
			fc := faults.Storm(ts, faults.Targets(workload.DefaultClouds()))
			fc.Horizon = spec.Horizon
			files[i].Faults = base + "-faults.jsonl"
			if err := faults.Generate(fc).SaveFile(files[i].Faults); err != nil {
				return nil, "", err
			}
			if err := hashFile(h, files[i].Faults); err != nil {
				return nil, "", err
			}
		}
	}
	return files, hex.EncodeToString(h.Sum(nil)), nil
}

func hashFile(h io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(h, f)
	return err
}

// pinsFile holds the expected input fingerprint per (workload, seed), one
// "workload seed sha256" line each. A generator change that alters the
// traffic a pinned seed produces fails the run's checks.
//
//go:embed pins.txt
var pinsFile string

// checkPin compares the run's input fingerprint against pins.txt.
func checkPin(r *run, sum string) {
	sc := bufio.NewScanner(strings.NewReader(pinsFile))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] != r.workload {
			continue
		}
		if s, err := strconv.ParseInt(f[1], 10, 64); err != nil || s != r.seed {
			continue
		}
		if f[2] != sum {
			r.fail("inputs for %s seed %d hash to %s, pinned %s: the trace generator changed",
				r.workload, r.seed, sum, f[2])
		}
		fmt.Printf("inputs: sha256=%s (pinned, matches=%t)\n", sum, f[2] == sum)
		return
	}
	fmt.Printf("inputs: sha256=%s (seed not pinned)\n", sum)
}
