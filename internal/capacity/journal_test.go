package capacity

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestJournalReplayRoundTrip: a journal streamed through Sink survives a
// LoadJournal round trip, Replay rebuilds the recording ledger byte for byte
// (outage transitions included), and the recovered ledger resumes the lease
// id sequence where the dead one stopped.
func TestJournalReplayRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jrn := NewJournal()
	jrn.Sink(&buf)
	l := New()
	l.Journal(jrn)
	l.AddCloud("a", 16)
	l.AddCloud("b", 8)

	la, err := l.AcquireUntil("a", 4, 100*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := la.Commit(); err != nil {
		t.Fatal(err)
	}
	lb, err := l.Acquire("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Reserve("a", 6, 50*sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := l.Retarget("a", "b", 2); err != nil { // 2 committed cores move a -> b
		t.Fatal(err)
	}
	lb.Release()
	if _, err := l.FailCloud("b"); err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreCloud("b"); err != nil {
		t.Fatal(err)
	}

	recs, err := LoadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != jrn.Len() {
		t.Fatalf("sink stream has %d records, journal holds %d", len(recs), jrn.Len())
	}
	rl, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(rl.Snapshot()), string(l.Snapshot()); got != want {
		t.Fatalf("replayed snapshot diverged:\nreplay:\n%s\nlive:\n%s", got, want)
	}
	// The id sequence is part of the recovered state: the next lease on
	// either ledger gets the same id.
	nl, err := l.Acquire("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := rl.Acquire("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if nl.id != nr.id {
		t.Fatalf("recovered ledger issued lease id %d, live issued %d", nr.id, nl.id)
	}
}

// TestFailCloudKeepsTotal: an outage zeroes free and headroom but keeps the
// total, so federation-wide "could this ever fit" checks still count the
// cloud as coming back — wide gangs wait for the restore instead of failing.
func TestFailCloudKeepsTotal(t *testing.T) {
	l := New()
	l.AddCloud("a", 16)
	le, err := l.Acquire("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := le.Commit(); err != nil {
		t.Fatal(err)
	}
	lost, err := l.FailCloud("a")
	if err != nil {
		t.Fatal(err)
	}
	if lost != 4 {
		t.Fatalf("outage lost %d cores, want 4", lost)
	}
	if l.Total("a") != 16 {
		t.Fatalf("total=%d after outage, want 16", l.Total("a"))
	}
	if l.Free("a") != 0 || l.Headroom("a", 0) != 0 {
		t.Fatalf("failed cloud reports free=%d headroom=%d, want 0/0", l.Free("a"), l.Headroom("a", 0))
	}
	if l.Probe("a", 1, 0) {
		t.Fatal("probe admitted on a failed cloud")
	}
	if _, err := l.Acquire("a", 1); err == nil {
		t.Fatal("acquire admitted on a failed cloud")
	}
	if _, err := l.Reserve("a", 1, 0); err == nil {
		t.Fatal("reserve admitted on a failed cloud")
	}
	if err := l.RestoreCloud("a"); err != nil {
		t.Fatal(err)
	}
	if l.Free("a") != 16 {
		t.Fatalf("free=%d after restore, want 16 (everything was evicted)", l.Free("a"))
	}
}

// impossibleJournals are journals no live ledger writes; Replay must reject
// each at the named record instead of building the ledger they describe.
var impossibleJournals = []struct {
	name, jsonl, at string
}{
	{"negative lease", `{"op":"cloud","cloud":"a","cores":8}
{"op":"lease","cloud":"a","id":1,"cores":-5}`, "record 1 (lease)"},
	{"negative uncommit", `{"op":"cloud","cloud":"a","cores":8}
{"op":"uncommit","cloud":"a","cores":-20}`, "record 1 (uncommit)"},
	{"negative total", `{"op":"cloud","cloud":"a","cores":-8}`, "record 0 (cloud)"},
	{"unknown kind", `{"op":"cloud","cloud":"a","cores":8}
{"op":"lease","cloud":"a","id":1,"cores":2,"kind":7}`, "record 1 (lease)"},
	{"held lease over free", `{"op":"cloud","cloud":"a","cores":8}
{"op":"lease","cloud":"a","id":1,"cores":40}`, "record 1 (lease)"},
	{"move over committed", `{"op":"cloud","cloud":"a","cores":8}
{"op":"cloud","cloud":"b","cores":8}
{"op":"move","cloud":"a","to":"b","cores":3}`, "record 2 (move)"},
	{"move over free", `{"op":"cloud","cloud":"a","cores":8}
{"op":"cloud","cloud":"b","cores":2}
{"op":"lease","cloud":"a","id":1,"cores":6}
{"op":"commit","id":1}
{"op":"move","cloud":"a","to":"b","cores":6}`, "record 4 (move)"},
}

// TestReplayRejectsImpossibleRecords: every impossible journal fails with
// an error naming the offending record.
func TestReplayRejectsImpossibleRecords(t *testing.T) {
	for _, c := range impossibleJournals {
		recs, err := LoadJournal(strings.NewReader(c.jsonl))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		l, err := Replay(recs)
		if err == nil {
			t.Fatalf("%s: replay accepted it:\n%s", c.name, l.Snapshot())
		}
		if !strings.Contains(err.Error(), c.at) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.at)
		}
	}
}

// liveJournal drives a small ledger through a seeded random mix of every
// transition and returns its journal as Sink streams it.
func liveJournal(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	jrn := NewJournal()
	jrn.Sink(&buf)
	l := New()
	l.Journal(jrn)
	clouds := []string{"a", "b", "c"}
	for _, c := range clouds {
		l.AddCloud(c, 8*(1+rng.Intn(3)))
	}
	var leases []*Lease
	for i := 0; i < steps; i++ {
		c := clouds[rng.Intn(len(clouds))]
		n := 1 + rng.Intn(6)
		at := sim.Time(rng.Intn(1000)) * sim.Second
		le := &Lease{l: l, closed: true} // an inactive stand-in until leases exist
		if len(leases) > 0 {
			le = leases[rng.Intn(len(leases))]
		}
		var got *Lease
		switch rng.Intn(12) {
		case 0, 1:
			got, _ = l.AcquireUntil(c, n, at)
		case 2:
			got, _ = l.Reserve(c, n, at)
		case 3:
			le.Commit()
		case 4:
			le.Release()
		case 5:
			got, _ = l.Evict(le, at)
		case 6:
			if le.Active() && le.Cores > 0 {
				got, _ = le.Retarget(c, 1+rng.Intn(le.Cores))
			}
		case 7:
			got, _ = l.EvictCommitted(c, rng.Intn(l.Committed(c)+1), at)
		case 8:
			l.Retarget(c, clouds[rng.Intn(len(clouds))], rng.Intn(l.Committed(c)+1))
		case 9:
			l.Uncommit(c, n)
		case 10:
			l.SetTotal(c, 8*(1+rng.Intn(3)))
		default:
			if rng.Intn(3) == 0 {
				l.FailCloud(c)
			} else {
				l.RestoreCloud(c)
			}
		}
		if got != nil {
			leases = append(leases, got)
		}
	}
	return buf.Bytes()
}

// FuzzJournalReplay feeds arbitrary JSONL to LoadJournal and Replay. Any
// journal Replay accepts must build a ledger whose lease lists are sound
// and whose aggregates equal its lease sums, and must replay to the same
// Snapshot a second time and after a Sink/LoadJournal round trip.
func FuzzJournalReplay(f *testing.F) {
	live := liveJournal(1, 200)
	recs, err := LoadJournal(bytes.NewReader(live))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := Replay(recs); err != nil {
		f.Fatalf("a live journal does not replay: %v", err)
	}
	f.Add(live)
	for _, c := range impossibleJournals {
		f.Add([]byte(c.jsonl))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := LoadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		l, err := Replay(recs)
		if err != nil {
			return
		}
		if err := checkLeaseLists(l); err != nil {
			t.Fatal(err)
		}
		want := l.Snapshot()
		again, err := Replay(recs)
		if err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if got := again.Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("second replay diverged:\n%s\nfirst:\n%s", got, want)
		}
		var buf bytes.Buffer
		j := NewJournal()
		j.Sink(&buf)
		for _, r := range recs {
			j.append(r)
		}
		back, err := LoadJournal(&buf)
		if err != nil {
			t.Fatalf("reloading the sunk journal: %v", err)
		}
		rt, err := Replay(back)
		if err != nil {
			t.Fatalf("replaying the sunk journal: %v", err)
		}
		if got := rt.Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("sink round trip diverged:\n%s\noriginal:\n%s", got, want)
		}
	})
}
