package capacity

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// The ledger journal is the crash-recovery substrate ROADMAP item 1
// (skyschedd) inherits: an append-only record of every primitive state
// transition the ledger performs, written by the call that performs it, so
// replaying the records into a fresh ledger rebuilds the live ledger's
// capacity state byte-identically (see Snapshot). Records are
// primitive on purpose — composite transitions (Evict, FailCloud,
// Lease.Retarget) decompose into the lease create/close/shrink and
// committed-core moves they are made of, so Replay needs no knowledge of
// policy, only of state.
//
// A ledger with no journal attached pays one nil check per transition; the
// hot read paths (Probe, Free, Headroom) never journal.

// Journal op codes. One record's Op selects which of its fields are
// meaningful (see Rec).
const (
	// OpCloud registers a cloud or updates its total (Cloud, Cores=total).
	OpCloud = "cloud"
	// OpLease creates a lease (ID, Cloud, Cores, Kind, At, End).
	OpLease = "lease"
	// OpCommit retires lease ID into the committed aggregate.
	OpCommit = "commit"
	// OpRelease closes lease ID.
	OpRelease = "release"
	// OpShrink removes Cores from lease ID in place (partial retarget).
	OpShrink = "shrink"
	// OpUncommit returns Cores committed cores on Cloud to the pool.
	OpUncommit = "uncommit"
	// OpMove moves Cores committed cores from Cloud to To.
	OpMove = "move"
	// OpFail marks Cloud failed (its leases were closed by preceding
	// OpRelease records; its committed cores by a preceding OpUncommit).
	OpFail = "fail"
	// OpRestore clears Cloud's failed mark.
	OpRestore = "restore"
)

// Rec is one journal record. Field order is fixed so an encoded journal is
// byte-stable across save/load round trips.
type Rec struct {
	Op    string `json:"op"`
	Cloud string `json:"cloud,omitempty"`
	To    string `json:"to,omitempty"`
	ID    int    `json:"id,omitempty"`
	Cores int    `json:"cores,omitempty"`
	Kind  int    `json:"kind,omitempty"`
	At    int64  `json:"at,omitempty"`
	End   int64  `json:"end,omitempty"`
}

// Journal accumulates ledger transition records. The owning ledger is its
// only writer, on the kernel thread, so the journal takes no lock; read it
// from that thread or after the run.
type Journal struct {
	recs []Rec
	enc  *json.Encoder
}

// NewJournal returns an empty in-memory journal.
func NewJournal() *Journal { return &Journal{} }

// Sink additionally streams every future record to w as one JSON line per
// record — the durable form a daemon would fsync.
func (j *Journal) Sink(w io.Writer) { j.enc = json.NewEncoder(w) }

// Recs returns the accumulated records (not a copy).
func (j *Journal) Recs() []Rec { return j.recs }

// Len returns the number of accumulated records.
func (j *Journal) Len() int { return len(j.recs) }

func (j *Journal) append(r Rec) {
	j.recs = append(j.recs, r)
	if j.enc != nil {
		j.enc.Encode(r) // best-effort stream; recs stays authoritative
	}
}

// Journal attaches j as the ledger's transition journal (nil detaches).
// Attach before the first transition: the journal must observe every
// mutation from the empty ledger onward for Replay to reconstruct state.
func (l *Ledger) Journal(j *Journal) {
	l.jrn = j
}

// jrec appends a record when a journal is attached.
func (l *Ledger) jrec(r Rec) {
	if l.jrn != nil {
		l.jrn.append(r)
	}
}

// LoadJournal reads records from a JSONL stream written by Sink.
func LoadJournal(r io.Reader) ([]Rec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var recs []Rec
	line := 0
	for sc.Scan() {
		line++
		var rec Rec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("capacity: journal line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Replay rebuilds a ledger from a journal: applying the records in order to
// a fresh ledger reproduces the recording ledger's capacity state —
// accounts, committed aggregates, active leases with their original ids —
// byte-identically under Snapshot. Lease ids are restored exactly (the id
// sequence is part of the record stream), so a recovered scheduler adopts
// where the dead one left off.
//
// Replay validates every record against the ledger state it meets and
// rejects, rather than coerces, one that no live ledger could have written:
// a negative core count on any op, a lease kind other than held or
// reserved, a held lease or a committed-core move larger than the free
// cores it lands on, and a move of more committed cores than the source
// holds. The error names the record's index and op.
func Replay(recs []Rec) (*Ledger, error) {
	l := New()
	for i, r := range recs {
		if err := l.apply(r); err != nil {
			return nil, fmt.Errorf("capacity: journal record %d (%s): %w", i, r.Op, err)
		}
	}
	return l, nil
}

// lease returns the active lease with the given id, or nil.
func (l *Ledger) lease(id int) *Lease {
	for _, a := range l.orderAccts {
		if i := a.find(id); i < len(a.leases) {
			return a.leases[i]
		}
	}
	return nil
}

// apply replays one record.
func (l *Ledger) apply(r Rec) error {
	if r.Cores < 0 {
		return fmt.Errorf("negative cores %d", r.Cores)
	}
	switch r.Op {
	case OpCloud:
		l.AddCloud(r.Cloud, r.Cores)
	case OpLease:
		a := l.accounts[r.Cloud]
		if a == nil {
			return fmt.Errorf("unknown cloud %q", r.Cloud)
		}
		if r.ID <= l.seq {
			return fmt.Errorf("lease id %d not past sequence %d", r.ID, l.seq)
		}
		k := Kind(r.Kind)
		if k != Held && k != Reserved {
			return fmt.Errorf("unknown lease kind %d", r.Kind)
		}
		if free := l.Free(r.Cloud); k == Held && free < r.Cores {
			return fmt.Errorf("held lease of %d cores on %s with %d free", r.Cores, r.Cloud, free)
		}
		l.seq = r.ID - 1 // newLease increments to exactly r.ID
		l.newLease(a, r.Cores, k, sim.Time(r.At), sim.Time(r.End))
	case OpCommit:
		le := l.lease(r.ID)
		if le == nil {
			return fmt.Errorf("unknown lease %d", r.ID)
		}
		return le.Commit()
	case OpRelease:
		le := l.lease(r.ID)
		if le == nil {
			return fmt.Errorf("unknown lease %d", r.ID)
		}
		le.Release()
	case OpShrink:
		le := l.lease(r.ID)
		if le == nil {
			return fmt.Errorf("unknown lease %d", r.ID)
		}
		if r.Cores == 0 || r.Cores >= le.Cores {
			return fmt.Errorf("shrinking %d of a %d-core lease", r.Cores, le.Cores)
		}
		le.Cores -= r.Cores
		*le.acct.kindCores(le.Kind) -= r.Cores
	case OpUncommit:
		a := l.accounts[r.Cloud]
		if a == nil {
			return fmt.Errorf("unknown cloud %q", r.Cloud)
		}
		a.committed -= r.Cores
		if a.committed < 0 {
			a.committed = 0
		}
	case OpMove:
		src, dst := l.accounts[r.Cloud], l.accounts[r.To]
		if src == nil || dst == nil {
			return fmt.Errorf("unknown cloud in move %q -> %q", r.Cloud, r.To)
		}
		if r.Cores > src.committed {
			return fmt.Errorf("moving %d committed cores from %s with %d committed", r.Cores, r.Cloud, src.committed)
		}
		if free := l.Free(r.To); free < r.Cores {
			return fmt.Errorf("moving %d committed cores onto %s with %d free", r.Cores, r.To, free)
		}
		src.committed -= r.Cores
		dst.committed += r.Cores
	case OpFail:
		a := l.accounts[r.Cloud]
		if a == nil {
			return fmt.Errorf("unknown cloud %q", r.Cloud)
		}
		a.failed = true
	case OpRestore:
		a := l.accounts[r.Cloud]
		if a == nil {
			return fmt.Errorf("unknown cloud %q", r.Cloud)
		}
		a.failed = false
	default:
		return fmt.Errorf("unknown op")
	}
	return nil
}

// Snapshot renders the ledger's full capacity state deterministically:
// accounts in name order with their aggregates and failed marks, then every
// active lease in id order. Two ledgers with equal Snapshot bytes are
// equivalent for every capacity decision — the equality the kill-and-recover
// tests assert between a live ledger and its journal replay.
func (l *Ledger) Snapshot() []byte {
	var b bytes.Buffer
	for _, a := range l.orderAccts {
		fmt.Fprintf(&b, "%s total=%d committed=%d held=%d reserved=%d failed=%t\n",
			a.name, a.total, a.committed, a.held, a.reserved, a.failed)
		for _, le := range a.leases {
			fmt.Fprintf(&b, "  lease %d kind=%s cores=%d at=%d end=%d\n",
				le.id, le.Kind, le.Cores, int64(le.At), int64(le.End))
		}
	}
	return b.Bytes()
}
