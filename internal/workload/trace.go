// Package workload is the scale harness: a seeded, deterministic trace
// generator (inhomogeneous-Poisson diurnal arrivals via thinning,
// heavy-tailed job sizes, per-tenant burst episodes, correlated spot
// revocation storms) and a replay driver that streams a trace — generated
// or loaded from disk — through the federation scheduler on a SimBackend
// and reduces the run to a survival row: wait percentiles, makespan,
// preemptions, fair-share error. Same seed, same trace, same metrics —
// byte for byte — so million-job replays are comparable across policy
// knobs and across commits.
package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Event kinds.
const (
	// KindSubmit queues one job at Event.At.
	KindSubmit = "submit"
	// KindRevoke is a spot-revocation storm striking Event.Cloud at
	// Event.At: running spot jobs with a plan slice there lose one worker
	// each, oldest submission first, up to Strikes jobs (0 = every one).
	KindRevoke = "revoke"

	// Fault episode kinds (see internal/faults for the generator).

	// KindOutage takes Event.Cloud down at Event.At. Partial > 0 is a
	// partial host loss — the cloud's capacity shrinks by that many cores
	// but survivors keep running; Partial == 0 is a full crash — every
	// lease and committed core on the cloud is evicted (ledger FailCloud)
	// and the scheduler requeues gangs with members there.
	KindOutage = "outage"
	// KindRestore returns Event.Cloud to full capacity, ending its outage.
	KindRestore = "restore"
	// KindDegrade multiplies the WAN link Event.Cloud <-> Event.Peer to
	// Factor x its base bandwidth (Factor 1 restores it). Degradation is a
	// rerouting trigger, not an error: future placements and consolidations
	// just price the slower link.
	KindDegrade = "degrade"
	// KindDeployFault makes the next Strikes launch attempts touching
	// Event.Cloud fail transiently (min 1) — the retry/backoff path's fuel.
	KindDeployFault = "deployfault"
)

// TraceVersion is the schema version written by Save and required by Load.
const TraceVersion = 1

// Tenant is one tenant's identity and fair-share weight, declared up front
// so a replay registers the full share denominator before the first job.
type Tenant struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// Header is the trace's first JSONL line: schema version, the generator
// seed (doubles as the default replay kernel seed), and the tenant set.
type Header struct {
	Version     int      `json:"version"`
	Seed        int64    `json:"seed"`
	Description string   `json:"description,omitempty"`
	Tenants     []Tenant `json:"tenants"`
}

// Event is one trace line. At is absolute virtual time in microseconds
// (sim.Time units); events are stored in non-decreasing At order.
type Event struct {
	At   int64  `json:"at"`
	Kind string `json:"kind"`

	// Submit fields.
	Tenant          string  `json:"tenant,omitempty"`
	Name            string  `json:"name,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	Cores           int     `json:"cores,omitempty"` // per worker
	EstimateSeconds float64 `json:"est,omitempty"`
	Spot            bool    `json:"spot,omitempty"`
	Bid             float64 `json:"bid,omitempty"`

	// Revoke and fault fields.
	Cloud   string `json:"cloud,omitempty"`
	Strikes int    `json:"strikes,omitempty"`

	// Fault fields (outage/degrade episodes).
	Partial int     `json:"partial,omitempty"` // outage: cores lost (0 = full crash)
	Peer    string  `json:"peer,omitempty"`    // degrade: the link's far end
	Factor  float64 `json:"factor,omitempty"`  // degrade: bandwidth multiplier
}

// Trace is a replayable workload: header plus time-ordered events.
type Trace struct {
	Header Header
	Events []Event
}

// Jobs counts the trace's submit events.
func (tr *Trace) Jobs() int {
	n := 0
	for i := range tr.Events {
		if tr.Events[i].Kind == KindSubmit {
			n++
		}
	}
	return n
}

// Save writes the trace as JSONL: the header line, then one line per
// event. Field order is fixed by the struct definitions, so saving a
// loaded trace reproduces the input byte for byte.
func (tr *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	h := tr.Header
	h.Version = TraceVersion
	if err := enc.Encode(h); err != nil {
		return err
	}
	for i := range tr.Events {
		if err := enc.Encode(tr.Events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveFile writes the trace to path.
func (tr *Trace) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a JSONL trace and validates it: known version, known event
// kinds, submit events with a tenant and positive workers, non-decreasing
// timestamps (the replay driver streams events in file order), and no
// value Replay would have to reinterpret (see Event.validate). A bad line
// is rejected with its line number, never coerced.
func Load(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("workload: empty trace")
	}
	tr := &Trace{}
	if err := json.Unmarshal(sc.Bytes(), &tr.Header); err != nil {
		return nil, fmt.Errorf("workload: bad header: %w", err)
	}
	if tr.Header.Version != TraceVersion {
		return nil, fmt.Errorf("workload: trace version %d, want %d", tr.Header.Version, TraceVersion)
	}
	line := 1
	var last int64
	for sc.Scan() {
		line++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", line, err)
		}
		if err := ev.validate(); err != nil {
			return nil, fmt.Errorf("workload: line %d: %v", line, err)
		}
		if ev.At < last {
			return nil, fmt.Errorf("workload: line %d: timestamps out of order", line)
		}
		last = ev.At
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// validate checks one event's fields against its kind. Zero keeps its
// documented meaning (cores 0 = 1 per worker, est 0 = derived, strikes 0 =
// every job for revoke and 1 for deployfault, partial 0 = full crash), but
// a value outside a field's range is an error: Replay would otherwise read
// a negative partial as a full crash, a degrade factor above 1 as the end
// of the episode, and a negative strikes, cores, est, bid or at as a
// default.
func (ev *Event) validate() error {
	if ev.At < 0 {
		return fmt.Errorf("negative at %d", ev.At)
	}
	switch ev.Kind {
	case KindSubmit:
		switch {
		case ev.Tenant == "" || ev.Workers <= 0:
			return fmt.Errorf("submit needs tenant and workers")
		case ev.Cores < 0:
			return fmt.Errorf("negative cores %d", ev.Cores)
		case ev.EstimateSeconds < 0:
			return fmt.Errorf("negative est %g", ev.EstimateSeconds)
		case ev.Bid < 0:
			return fmt.Errorf("negative bid %g", ev.Bid)
		}
		return nil
	case KindRevoke, KindOutage, KindRestore, KindDeployFault, KindDegrade:
	default:
		return fmt.Errorf("unknown kind %q", ev.Kind)
	}
	switch {
	case ev.Cloud == "":
		return fmt.Errorf("%s needs cloud", ev.Kind)
	case ev.Strikes < 0:
		return fmt.Errorf("negative strikes %d", ev.Strikes)
	case ev.Partial < 0:
		return fmt.Errorf("negative partial %d", ev.Partial)
	case ev.Kind == KindDegrade && (ev.Peer == "" || ev.Factor <= 0 || ev.Factor > 1):
		return fmt.Errorf("degrade needs cloud, peer, and a factor in (0, 1], got %g", ev.Factor)
	}
	return nil
}

// LoadFile reads a trace from path.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
