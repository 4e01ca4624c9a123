package obs

import (
	"io"
	"net/http"
	"strconv"
	"sync"
)

// TraceEvent is one scheduler decision. Every field is derived from
// deterministic simulation state — cycle number, virtual kernel timestamp,
// identities, plan membership — never from wall clock, so two identical
// seeded runs emit byte-identical traces.
type TraceEvent struct {
	Cycle   int64   // scheduler cycle number the decision happened in
	At      int64   // virtual kernel time, microseconds
	Kind    string  // dispatch, dispatch_backfill, reserve, block, preempt, forced_preempt, consolidate, relocate, ...
	Tenant  string  // owning tenant, if any
	Job     string  // job ID, if any
	Cloud   string  // primary / target cloud
	From    string  // relocation source cloud
	To      string  // relocation target cloud
	Workers int     // workers involved (dispatch plan size, relocation move size)
	Cores   int     // cores involved
	Price   float64 // preemption: victim eviction price
	Start   int64   // reserve: reserved start instant, virtual microseconds
	Plan    string  // rendered plan members, e.g. "cloud-a:4+cloud-b:2"
}

// appendJSON renders the event as a single JSON object with fields in a
// fixed order, omitting zero values deterministically. Hand-rolled so the
// byte stream never depends on map iteration or encoder internals.
func (ev *TraceEvent) appendJSON(b []byte) []byte {
	b = append(b, `{"cycle":`...)
	b = strconv.AppendInt(b, ev.Cycle, 10)
	b = append(b, `,"at":`...)
	b = strconv.AppendInt(b, ev.At, 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, ev.Kind)
	if ev.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = strconv.AppendQuote(b, ev.Tenant)
	}
	if ev.Job != "" {
		b = append(b, `,"job":`...)
		b = strconv.AppendQuote(b, ev.Job)
	}
	if ev.Cloud != "" {
		b = append(b, `,"cloud":`...)
		b = strconv.AppendQuote(b, ev.Cloud)
	}
	if ev.From != "" {
		b = append(b, `,"from":`...)
		b = strconv.AppendQuote(b, ev.From)
	}
	if ev.To != "" {
		b = append(b, `,"to":`...)
		b = strconv.AppendQuote(b, ev.To)
	}
	if ev.Workers != 0 {
		b = append(b, `,"workers":`...)
		b = strconv.AppendInt(b, int64(ev.Workers), 10)
	}
	if ev.Cores != 0 {
		b = append(b, `,"cores":`...)
		b = strconv.AppendInt(b, int64(ev.Cores), 10)
	}
	if ev.Price != 0 {
		b = append(b, `,"price":`...)
		b = strconv.AppendFloat(b, ev.Price, 'g', -1, 64)
	}
	if ev.Start != 0 {
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, ev.Start, 10)
	}
	if ev.Plan != "" {
		b = append(b, `,"plan":`...)
		b = strconv.AppendQuote(b, ev.Plan)
	}
	b = append(b, '}', '\n')
	return b
}

// Tracer records TraceEvents into a bounded ring and, when a sink is set,
// streams each event as one JSONL line. All methods are safe on a nil
// receiver, so untraced schedulers pay one nil check per decision point.
type Tracer struct {
	mu   sync.Mutex
	ring []TraceEvent
	next int
	full bool
	sink io.Writer
	buf  []byte
	n    int64
}

// NewTracer returns a tracer retaining the last `capacity` events
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]TraceEvent, capacity)}
}

// SetSink streams every subsequent event to w as JSONL (nil disables).
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = w
	t.mu.Unlock()
}

// Emit records one event.
func (t *Tracer) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = ev
	t.next++
	if t.next == len(t.ring) {
		t.next, t.full = 0, true
	}
	t.n++
	if t.sink != nil {
		t.buf = ev.appendJSON(t.buf[:0])
		t.sink.Write(t.buf)
	}
	t.mu.Unlock()
}

// Len returns the total number of events emitted (including ones the ring
// has already dropped).
func (t *Tracer) Len() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]TraceEvent(nil), t.ring[:t.next]...)
	}
	out := make([]TraceEvent, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// WriteJSONL renders the retained events, oldest first, one JSON object per
// line.
func (t *Tracer) WriteJSONL(w io.Writer) (int64, error) {
	var b []byte
	for _, ev := range t.Events() {
		ev := ev
		b = ev.appendJSON(b)
	}
	n, err := w.Write(b)
	return int64(n), err
}

// Handler serves the retained trace as JSONL, for /debug/trace.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		t.WriteJSONL(w)
	})
}
