package obs

import (
	"bytes"
	"testing"
)

// TestTraceJSONEncoding pins the hand-rolled encoder: fixed key order,
// deterministic zero-value omission, envelope fields always present.
func TestTraceJSONEncoding(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(TraceEvent{Kind: "dispatch", Tenant: "gold", Job: "J1", Cloud: "c0",
		Workers: 4, Cores: 8, Plan: "c0:4"})
	tr.Emit(TraceEvent{Cycle: 3, At: 1500000, Kind: "preempt", Tenant: "silver",
		Job: "J9", Price: 12.5})
	var buf bytes.Buffer
	tr.WriteJSONL(&buf)
	want := `{"cycle":0,"at":0,"kind":"dispatch","tenant":"gold","job":"J1","cloud":"c0","workers":4,"cores":8,"plan":"c0:4"}
{"cycle":3,"at":1500000,"kind":"preempt","tenant":"silver","job":"J9","price":12.5}
`
	if buf.String() != want {
		t.Errorf("encoding drifted:\n got: %q\nwant: %q", buf.String(), want)
	}
}

// TestTraceRingWrap: a full ring drops the oldest events and Events()
// returns the survivors oldest-first.
func TestTraceRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(TraceEvent{Cycle: int64(i), Kind: "dispatch"})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 2); ev.Cycle != want {
			t.Errorf("evs[%d].Cycle = %d, want %d", i, ev.Cycle, want)
		}
	}
	if tr.Len() != 6 {
		t.Errorf("Len = %d, want 6 (total emitted)", tr.Len())
	}
}

// TestTraceSinkMatchesRing: the streaming sink sees the same bytes a
// post-hoc WriteJSONL produces while the ring has not wrapped.
func TestTraceSinkMatchesRing(t *testing.T) {
	var sink bytes.Buffer
	tr := NewTracer(16)
	tr.SetSink(&sink)
	for i := 0; i < 5; i++ {
		tr.Emit(TraceEvent{Cycle: int64(i), At: int64(i) * 10, Kind: "block", Job: "J"})
	}
	var ring bytes.Buffer
	tr.WriteJSONL(&ring)
	if !bytes.Equal(sink.Bytes(), ring.Bytes()) {
		t.Errorf("sink and ring renders differ:\nsink: %s\nring: %s", sink.Bytes(), ring.Bytes())
	}
}

// TestTracerNilSafety: a nil tracer absorbs every call.
func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Emit(TraceEvent{Kind: "dispatch"})
	tr.SetSink(&bytes.Buffer{})
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer must read empty")
	}
	var buf bytes.Buffer
	tr.WriteJSONL(&buf)
	if buf.Len() != 0 {
		t.Error("nil tracer must write nothing")
	}
}
