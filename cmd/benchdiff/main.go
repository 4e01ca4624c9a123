// Command benchdiff compares `go test -bench` output against a committed
// baseline (BENCH_sched.json) and fails when a tier-1 benchmark regressed
// beyond tolerance — the CI gate that catches the next silent scheduler
// slide (PR 3 regressed BenchmarkSchedulerCycle +8% with nothing to notice).
//
// The baseline stores one entry set per CPU model (`cpu → benchmarks`), so
// a heterogeneous runner fleet gates times instead of warning: each
// machine's run compares against the baseline recorded on the same CPU
// string. Two metrics are gated differently:
//
//   - allocs/op is deterministic for these benchmarks (fixed seeds, fixed
//     workloads), so it gates hard on any machine: against the run's own
//     CPU entry when recorded, otherwise against every recorded CPU entry
//     that holds the benchmark;
//   - ns/op is hardware-dependent: with -gate auto (default) it gates only
//     when the run's `cpu:` line has a recorded baseline and warns
//     otherwise. On shared CI runners pass -gate allocs — virtualized
//     hosts report a generic cpu string that can collide across unlike
//     hardware (and noisy neighbours swamp a 20% tolerance). Record your
//     own machine's baseline with -update (it merges into the per-CPU
//     map, preserving other machines' entries).
//
// Usage:
//
//	go test -bench '...' -benchtime 3x -run '^$' . | tee bench.txt
//	go run ./cmd/benchdiff -baseline BENCH_sched.json -input bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded baseline.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// CPUBaseline is one CPU model's benchmark record.
type CPUBaseline struct {
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Baseline is the committed benchmark record: entries keyed by the `cpu:`
// line go test reports.
type Baseline struct {
	Baselines map[string]CPUBaseline `json:"baselines,omitempty"`
}

// benchLine matches "BenchmarkName[-P]  iters  N ns/op [... M allocs/op]",
// capturing the GOMAXPROCS suffix go test appends under -cpu.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s([\d.]+) allocs/op)?`)

// parse reads go test -bench output. Each result is recorded twice: under
// its suffixed name exactly as printed ("BenchmarkFoo-4"), so a -cpu list
// gates every parallelism level the baseline records, and under the plain
// name, where the FIRST occurrence wins — with -cpu 1,4 that is the -cpu 1
// run, keeping plain-name baselines pinned to the sequential configuration
// they were recorded at.
//
// record lists the names -update writes: each benchmark's plain name, plus
// its suffixed names only when the input ran it at more than one -cpu
// value. A run at a single -cpu value thus records one entry per benchmark,
// whatever GOMAXPROCS suffix the host prints.
func parse(r io.Reader) (cpu string, results map[string]Entry, record []string, err error) {
	results = make(map[string]Entry)
	suffixes := make(map[string][]string) // plain name → distinct suffixes seen, "" for none
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[3], 64)
		allocs := 0.0
		if m[4] != "" {
			allocs, _ = strconv.ParseFloat(m[4], 64)
		}
		e := Entry{NsPerOp: ns, AllocsPerOp: allocs}
		if m[2] != "" {
			results[m[1]+m[2]] = e
		}
		if _, seen := results[m[1]]; !seen {
			results[m[1]] = e
		}
		if !slices.Contains(suffixes[m[1]], m[2]) {
			suffixes[m[1]] = append(suffixes[m[1]], m[2])
		}
	}
	for name, sfx := range suffixes {
		record = append(record, name)
		if len(sfx) > 1 {
			for _, x := range sfx {
				if x != "" {
					record = append(record, name+x)
				}
			}
		}
	}
	return cpu, results, record, sc.Err()
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_sched.json", "committed baseline JSON")
	inputPath := flag.String("input", "-", "go test -bench output ('-' = stdin)")
	tolerance := flag.Float64("tolerance", 0.20, "allowed relative regression")
	gateMode := flag.String("gate", "auto", "what gates hard: 'allocs' (deterministic only), 'all', or 'auto' (ns/op gates when this cpu has a recorded baseline — use 'allocs' on shared CI runners, whose generic cpu string can collide across unlike hardware)")
	update := flag.Bool("update", false, "merge this run into the baseline's entry for this cpu instead of comparing")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	cpu, results, record, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines in %s", *inputPath))
	}

	if *update {
		var base Baseline
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			if err := json.Unmarshal(raw, &base); err != nil {
				fatal(err)
			}
		}
		cb := merge(&base, cpu, results, record)
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(out, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: wrote %s (%d benchmarks merged, %d now under cpu %q, %d cpu(s) total)\n",
			*baselinePath, len(record), len(cb.Benchmarks), cpu, len(base.Baselines))
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(err)
	}
	if len(base.Baselines) == 0 {
		fatal(fmt.Errorf("baseline %s holds no benchmark entries", *baselinePath))
	}
	ok, err := gate(os.Stdout, base, cpu, results, *tolerance, *gateMode)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// merge writes the run's results for the names in record into base's entry
// for cpu and returns that entry. It merges per benchmark: a partial run
// (one suite's -bench regex) must not clobber this CPU's entries for the
// other suites.
func merge(base *Baseline, cpu string, results map[string]Entry, record []string) CPUBaseline {
	if base.Baselines == nil {
		base.Baselines = make(map[string]CPUBaseline)
	}
	cb, ok := base.Baselines[cpu]
	if !ok || cb.Benchmarks == nil {
		cb = CPUBaseline{Benchmarks: map[string]Entry{}}
	}
	for _, name := range record {
		cb.Benchmarks[name] = results[name]
	}
	base.Baselines[cpu] = cb
	return cb
}

// gate compares one run's results with the baseline, writing a line per
// regression, warning or improvement to w, and reports whether the run
// passes. A run whose cpu has a recorded entry is compared with that entry
// alone. Any other run is compared with every recorded entry that holds
// each benchmark, so a partial entry never hides a regression that a
// fuller one records.
func gate(w io.Writer, base Baseline, cpu string, results map[string]Entry, tolerance float64, mode string) (bool, error) {
	_, cpuMatched := base.Baselines[cpu]
	var gateTime bool
	switch mode {
	case "all":
		gateTime = true
		if !cpuMatched {
			fmt.Fprintf(w, "benchdiff: WARNING: -gate all with no baseline for cpu %q — ns/op gates against other machines' numbers\n", cpu)
		}
	case "allocs":
		gateTime = false
	case "auto":
		gateTime = cpuMatched && cpu != ""
	default:
		return false, fmt.Errorf("unknown -gate mode %q (want allocs, all, or auto)", mode)
	}
	if !gateTime {
		fmt.Fprintf(w, "benchdiff: ns/op regressions warn instead of fail (gate=%s, cpu %q recorded=%v)\n",
			mode, cpu, cpuMatched)
	}
	keys := []string{cpu}
	if !cpuMatched {
		keys = sortedKeys(base.Baselines)
	}
	// Gate the intersection: each CI step feeds only its own suite's
	// -bench output, so baseline entries owned by other steps are noted,
	// not failed. An input that matches nothing is still a hard failure —
	// that is the typo'd-regex case the gate exists to catch.
	failed := false
	matched := make(map[string]bool)
	missing := make(map[string]Entry)
	for _, key := range keys {
		entries := base.Baselines[key].Benchmarks
		for _, name := range sortedKeys(entries) {
			want := entries[name]
			got, ok := results[name]
			if !ok {
				missing[name] = want
				continue
			}
			matched[name] = true
			label := name
			if !cpuMatched {
				label = fmt.Sprintf("%s (cpu %q)", name, key)
			}
			failed = check(w, label, "allocs/op", want.AllocsPerOp, got.AllocsPerOp, tolerance, true) || failed
			failed = check(w, label, "ns/op", want.NsPerOp, got.NsPerOp, tolerance, gateTime) || failed
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(w, "benchdiff: note: %d baseline benchmark(s) not in this input (gated elsewhere): %s\n",
			len(missing), strings.Join(sortedKeys(missing), ", "))
	}
	if len(matched) == 0 {
		fmt.Fprintf(w, "FAIL: input matches no baseline benchmark (gate misconfigured?)\n")
		return false, nil
	}
	if failed {
		return false, nil
	}
	fmt.Fprintf(w, "benchdiff: %d benchmarks within %.0f%% of baseline\n", len(matched), tolerance*100)
	return true, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// check reports one metric comparison, returning true on a gating failure.
func check(w io.Writer, name, metric string, want, got, tolerance float64, gate bool) bool {
	if want <= 0 {
		return false
	}
	rel := (got - want) / want
	switch {
	case rel > tolerance && gate:
		fmt.Fprintf(w, "FAIL %s: %s %.0f vs baseline %.0f (%+.1f%% > %.0f%%)\n",
			name, metric, got, want, rel*100, tolerance*100)
		return true
	case rel > tolerance:
		fmt.Fprintf(w, "warn %s: %s %.0f vs baseline %.0f (%+.1f%%, not gated on this cpu)\n",
			name, metric, got, want, rel*100)
	case rel < -tolerance:
		fmt.Fprintf(w, "note %s: %s improved %.1f%% — consider -update to ratchet the baseline\n",
			name, metric, -rel*100)
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
