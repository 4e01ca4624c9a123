package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Host-speed calibration.
//
// On a shared host the program's speed drifts by a fifth or more over
// minutes while other tenants load the same physical cores, and a whole run
// can fall inside a slow stretch. The benchmark therefore times a fixed
// reference kernel, its own code that never changes with the program,
// interleaved with the measured calls, and reports every end-to-end time at
// the reference host speed: the run's median wall time multiplied by
// refNominalS over the run's median reference time (replays combine this
// factor with the decode reference's below). A program twice as fast still
// reads half the time; a host twice as slow for the whole run reads the
// same. The raw wall times are printed on the run's `raw:` line.

// refNominalS is the reference time every figure is scaled to: roughly the
// reference kernel's median time on the host the figures in NOTES.md were
// taken on (a 2-vCPU "Intel(R) Xeon(R) Processor").
const refNominalS = 0.020

// refInterval is how much wall time may pass between two reference samples:
// the kernel takes ~20 ms, so sampling every ~150 ms costs about a tenth of
// a run and still gives a few hundred samples over it.
const refInterval = 150 * time.Millisecond

// calibrator collects reference-kernel timings over one run.
type calibrator struct {
	samples []float64
	last    time.Time
	sink    uint64 // keeps the kernel's result live
}

// sample times one reference kernel.
func (c *calibrator) sample() {
	t0 := time.Now()
	c.sink += refKernel()
	c.last = time.Now()
	c.samples = append(c.samples, c.last.Sub(t0).Seconds())
}

// due samples the reference kernel if refInterval has passed since the last
// sample (or there was none).
func (c *calibrator) due() {
	if c.last.IsZero() || time.Since(c.last) >= refInterval {
		c.sample()
	}
}

// factor converts a median wall time measured in this run to the reference
// host speed: refNominalS over the run's median reference time. Medians on
// both sides, because both then see the same typical share of the host; a
// fastest time finds a quiet moment far more often in a short kernel than
// in an 80 ms replay.
func (c *calibrator) factor() float64 {
	return refNominalS / median(c.samples)
}

// Set-up calibration. Loading a trace is reading a file and decoding JSON
// lines, work the reference kernel above follows poorly (over windows of a
// few seconds the load time over its time varied by 8%). Set-up times are
// therefore scaled by a decode reference of the same kind instead: a fixed
// JSONL file the benchmark writes once, read and decoded line by line with
// encoding/json, which varied by 4% against the loads. Both are bimodal on
// a shared 2-vCPU host (the same call takes ~4.5 or ~7.5 ms, in a mix that
// changes by the minute), so set-up uses means, which follow the mix
// smoothly, where a median jumps from one mode to the other.

// decodeNominalS is the time set-up figures are scaled to: roughly the
// decode reference's mean time on the host NOTES.md names.
const decodeNominalS = 0.006

// decodeEvent is one line of the decode reference, shaped like a trace's
// submission events.
type decodeEvent struct {
	Kind    string  `json:"kind"`
	At      float64 `json:"at"`
	Job     int     `json:"job"`
	Tenant  string  `json:"tenant"`
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Spot    bool    `json:"spot,omitempty"`
}

// decodeRef collects decode-reference timings over one run.
type decodeRef struct {
	path    string
	samples []float64
	sink    int // keeps the decoded result live
}

// newDecodeRef writes the decode reference's fixed input under dir.
func newDecodeRef(dir string) (*decodeRef, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	tenants := []string{"ana", "etl", "sci", "spot"}
	for i := 0; i < 2000; i++ {
		e := decodeEvent{Kind: "submit", At: float64(i) * 1.37, Job: i, Tenant: tenants[i%4],
			Workers: 1 + i%48, Seconds: 20 + float64(i%997), Spot: i%5 == 0}
		if err := enc.Encode(e); err != nil {
			return nil, err
		}
	}
	d := &decodeRef{path: filepath.Join(dir, "decode-reference.jsonl")}
	return d, os.WriteFile(d.path, b.Bytes(), 0o644)
}

// sample times one read and decode of the reference file.
func (d *decodeRef) sample() error {
	t0 := time.Now()
	data, err := os.ReadFile(d.path)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	var events []decodeEvent
	for sc.Scan() {
		var e decodeEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return err
		}
		events = append(events, e)
	}
	d.sink += len(events)
	d.samples = append(d.samples, time.Since(t0).Seconds())
	return sc.Err()
}

// factor converts a mean set-up time measured in this run to the reference
// host speed: decodeNominalS over the run's mean decode time.
func (d *decodeRef) factor() float64 {
	return decodeNominalS / mean(d.samples)
}

// refJob and refEvent are the reference kernel's state, shaped like the
// simulator's: small structs behind pointers, found by key in a map and
// ordered by (time, sequence) in an event heap.
type refJob struct {
	id    uint64
	cores int
	left  float64
}

type refEvent struct {
	at  float64
	seq uint64
	job *refJob
}

func refLess(a, b refEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// refKernel is a fixed discrete-event loop in the style of a replay: it pops
// events from a binary heap, looks jobs up in a map, retires and creates
// jobs (allocating as the scheduler does), pushes follow-up events, and now
// and then sorts the live jobs by remaining work. Every call does the same
// work; the result only keeps the compiler from removing it.
//
// Its state is sized like a replay's, a few MB of map, heap and job structs
// that spill out of the core's private caches: neighbours on a shared host
// slow such code far more than code that stays in cache. A 1k-job version
// slowed by a quarter while the replays slowed by two thirds; at 16k live
// jobs the kernel's slowdowns follow the replays' to within a few percent.
func refKernel() uint64 {
	const (
		live      = 16384
		steps     = 24000
		sortEvery = 8000
	)
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	jobs := make(map[uint64]*refJob, live)
	heap := make([]refEvent, 0, live)
	var seq uint64
	push := func(e refEvent) {
		heap = append(heap, e)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !refLess(e, heap[p]) {
				break
			}
			heap[i] = heap[p]
			i = p
		}
		heap[i] = e
	}
	pop := func() refEvent {
		top := heap[0]
		last := heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		n := len(heap)
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && refLess(heap[c+1], heap[c]) {
				c++
			}
			if !refLess(heap[c], last) {
				break
			}
			heap[i] = heap[c]
			i = c
		}
		if n > 0 {
			heap[i] = last
		}
		return top
	}
	newJob := func(now float64) {
		seq++
		j := &refJob{id: rnd(), cores: 1 + int(rnd()%64), left: float64(rnd()%3600) + 1}
		jobs[j.id] = j
		push(refEvent{at: now + j.left, seq: seq, job: j})
	}
	for i := 0; i < live; i++ {
		newJob(0)
	}
	var sum uint64
	running := make([]*refJob, 0, live)
	for s := 0; s < steps; s++ {
		e := pop()
		if j, ok := jobs[e.job.id]; ok {
			sum += uint64(j.cores)
			delete(jobs, j.id)
		}
		newJob(e.at)
		if s%sortEvery == 0 {
			running = running[:0]
			for _, j := range jobs {
				running = append(running, j)
			}
			sort.Slice(running, func(a, b int) bool {
				if running[a].left != running[b].left {
					return running[a].left < running[b].left
				}
				return running[a].id < running[b].id
			})
			sum += running[0].id
		}
	}
	return sum
}
