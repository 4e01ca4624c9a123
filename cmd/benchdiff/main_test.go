package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestGate(t *testing.T) {
	x := Entry{NsPerOp: 1000, AllocsPerOp: 100}
	cases := []struct {
		name  string
		base  map[string]CPUBaseline
		input string
		mode  string
		want  string // a line the failing verdict must contain
	}{
		{
			// The run's cpu matches no key: a key that lacks BenchmarkY
			// must not hide Y's regression against the key that has it.
			name: "unmatched cpu gates allocs against every key",
			base: map[string]CPUBaseline{
				"CPU A (partial)": {Benchmarks: map[string]Entry{"BenchmarkX": x}},
				"CPU B (full)":    {Benchmarks: map[string]Entry{"BenchmarkX": x, "BenchmarkY": x}},
			},
			input: "cpu: CPU C\n" +
				"BenchmarkX-2   3   1000 ns/op   64 B/op   100 allocs/op\n" +
				"BenchmarkY-2   3   1000 ns/op   64 B/op   500 allocs/op\n",
			mode: "allocs",
			want: `FAIL BenchmarkY (cpu "CPU B (full)"): allocs/op`,
		},
		{
			name:  "matched cpu gates ns/op under auto",
			base:  map[string]CPUBaseline{"CPU A": {Benchmarks: map[string]Entry{"BenchmarkX": x}}},
			input: "cpu: CPU A\nBenchmarkX-2   3   2000 ns/op   64 B/op   100 allocs/op\n",
			mode:  "auto",
			want:  "FAIL BenchmarkX: ns/op",
		},
		{
			name:  "input matching no baseline benchmark fails",
			base:  map[string]CPUBaseline{"CPU A": {Benchmarks: map[string]Entry{"BenchmarkX": x}}},
			input: "cpu: CPU A\nBenchmarkZ-2   3   1000 ns/op   64 B/op   100 allocs/op\n",
			mode:  "allocs",
			want:  "FAIL: input matches no baseline benchmark",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cpu, results, _, err := parse(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			ok, err := gate(&out, Baseline{Baselines: tc.base}, cpu, results, 0.20, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("gate passed, want failure:\n%s", out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out.String())
			}
		})
	}
}

// TestUpdateRecordsEachBenchmarkOnce: -update writes one entry per benchmark
// from a run at a single -cpu value, whatever GOMAXPROCS suffix the host
// prints, and the suffixed names too only when the run covers several.
func TestUpdateRecordsEachBenchmarkOnce(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  []string
	}{
		{
			name: "one cpu value",
			input: "cpu: CPU A\n" +
				"BenchmarkX-2   3   1000 ns/op   64 B/op   100 allocs/op\n" +
				"BenchmarkY-2   3   2000 ns/op   64 B/op   200 allocs/op\n",
			want: []string{"BenchmarkX", "BenchmarkY"},
		},
		{
			name: "several cpu values",
			input: "cpu: CPU A\n" +
				"BenchmarkX     3   1000 ns/op   64 B/op   100 allocs/op\n" +
				"BenchmarkX-4   3    500 ns/op   64 B/op   100 allocs/op\n" +
				"BenchmarkY-2   3   2000 ns/op   64 B/op   200 allocs/op\n",
			want: []string{"BenchmarkX", "BenchmarkX-4", "BenchmarkY"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cpu, results, record, err := parse(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			base := Baseline{Baselines: map[string]CPUBaseline{
				"CPU B": {Benchmarks: map[string]Entry{"BenchmarkX-2": {NsPerOp: 1}}},
			}}
			merge(&base, cpu, results, record)
			got := sortedKeys(base.Baselines["CPU A"].Benchmarks)
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Fatalf("recorded %v, want %v", got, tc.want)
			}
			if x := base.Baselines["CPU A"].Benchmarks["BenchmarkX"]; x.NsPerOp != 1000 || x.AllocsPerOp != 100 {
				t.Fatalf("BenchmarkX recorded as %+v, want the first run's numbers", x)
			}
			if len(base.Baselines["CPU B"].Benchmarks) != 1 {
				t.Fatal("another cpu's entry changed")
			}
		})
	}
}
