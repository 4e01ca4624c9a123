// Command perfbench is the repository's benchmark: it runs one named
// workload through the program's public entry points, checks the outputs,
// and prints the result as one JSON object on the last line of standard
// output.
//
//	perfbench --workload replay-peak --seed 42 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 the run also drives the traced step loop and the metrics are the
// per-layer ones. NOTES.md in this directory explains every workload and
// metric. Run it through run.sh, which builds it from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
)

// canonicalSeed is the default workload seed; heldOutSeed is the second
// seed a performance claim must also hold on (see NOTES.md).
const (
	canonicalSeed = 42
	heldOutSeed   = 4243
)

// inputDir is where generated inputs are written, relative to the
// repository root the benchmark runs from.
const inputDir = ".bench_build/inputs"

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool

	rep      report
	problems []string
}

// fail records a failed output check; the run still reports its metrics.
func (r *run) fail(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

func (r *run) set(name string, v float64, unit string) {
	r.rep.Metrics[name] = metric{Value: v, Unit: unit}
}

// replaySpecs maps the replay workloads to their input recipes; the one
// other workload is paper-tables.
var replaySpecs = map[string]replaySpec{
	replayPeak.Name: replayPeak, replayLight.Name: replayLight, replayChaos.Name: replayChaos,
}

func main() {
	name := flag.String("workload", "", "workload to run: replay-peak, replay-light, replay-chaos, paper-tables")
	seed := flag.Int64("seed", canonicalSeed, "workload seed (inputs are a pure function of it)")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	printPin := flag.Bool("print-pin", false, "print the workload's pins.txt line for --seed and exit")
	flag.Parse()

	spec, isReplay := replaySpecs[*name]
	if (!isReplay && *name != "paper-tables") || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload replay-peak|replay-light|replay-chaos|paper-tables, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		rep:      report{Metrics: make(map[string]metric)},
	}
	if err := os.MkdirAll(inputDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *printPin {
		if !isReplay {
			fmt.Fprintf(os.Stderr, "perfbench: %s has no generated inputs to pin\n", r.workload)
			os.Exit(2)
		}
		_, fingerprint, err := writeInputs(r, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(r.workload, r.seed, fingerprint)
		return
	}
	printContext(r)
	runner := runTables
	if isReplay {
		runner = func(r *run) error { return runReplay(r, spec) }
	}
	if err := runner(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.rep.Correct = len(r.problems) == 0
	out, err := json.Marshal(r.rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printContext prints the machine and runtime the numbers come from: the
// cpu model string, CPU count, GOMAXPROCS, Go version, and the scheduler's
// resolved scoring-pool size under the configuration the replays use.
func printContext(r *run) {
	b := sched.NewSimBackend(sim.NewKernel(1))
	workers := sched.New(b, replayConfig().Sched).ScoreWorkerCount()
	fmt.Printf("context: workload=%s seed=%d held_out_seed=%d trace=%t\n",
		r.workload, r.seed, heldOutSeed, r.traced)
	fmt.Printf("context: cpu=%q nproc=%d gomaxprocs=%d go=%s score_workers=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), workers)
}

// cpuModel returns the processor's model name as go test prints it on its
// cpu: line, or the architecture when the kernel does not expose one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAlloc returns the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minimum returns the smallest value; 0 for none.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// mean returns the arithmetic mean; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
