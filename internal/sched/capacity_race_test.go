package sched

import (
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/sim"
)

// Regression tests for the grow-vs-reservation race (ROADMAP follow-on from
// the gang-placement PR): elastic growth used to consult free cores but not
// outstanding backfill reservations, so a deadline-chasing grow could take
// the cores a reserved gang start needed. Growth now probes the capacity
// ledger, where the scheduler's reservation lives between cycles.

// raceBackend: cloud "a" runs a 6-core holder until t=200; cloud "b" is
// filled by an elastic job that will try to grow; a wide job blocks and
// reserves all of "a" at t=200.
func raceBackend(t *testing.T) (*sim.Kernel, *SimBackend, *Scheduler, string, string) {
	t.Helper()
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("a", 8, 1, 0.10)
	b.AddCloud("b", 8, 1, 0.10)
	s := New(b, Config{ElasticInterval: 10 * sim.Second, DeadlineMargin: 10 * sim.Second})
	s.Start()
	s.AddTenant("t", 1)
	// Holder: 6 of a's 8 cores until t=200.
	submitN(t, s, "t", 1, JobSpec{Workers: 3, CoresPerWorker: 2, EstimateSeconds: 200})
	// Elastic job fills b and is doomed to miss its deadline, so every
	// elastic tick tries to grow it by one worker.
	elastic := submitN(t, s, "t", 1, JobSpec{Workers: 4, CoresPerWorker: 2,
		EstimateSeconds: 300, Deadline: 100 * sim.Second, MaxExtraWorkers: 2,
		MR: mapreduce.Job{NumMaps: 30, NumReduces: 2}})[0]
	// Wide job: needs all 8 of a's cores — blocked, reserving a at t=200.
	wide := submitN(t, s, "t", 1, JobSpec{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})[0]
	return k, b, s, elastic, wide
}

// TestGrowDeniedByReservation: the elastic job's grow must not take a's two
// free cores — the reservation needs all 8 at t=200 — so the wide job
// starts exactly when the holder finishes, and no cloud is ever
// oversubscribed.
func TestGrowDeniedByReservation(t *testing.T) {
	k, b, s, elastic, wide := raceBackend(t)
	// Sample the physical invariant while the race window is open.
	for _, at := range []sim.Time{50 * sim.Second, 150 * sim.Second, 250 * sim.Second} {
		k.At(at, func() {
			for _, name := range []string{"a", "b"} {
				l := b.Ledger()
				if got := l.Committed(name) + l.Held(name); got > l.Total(name) {
					t.Errorf("t=%v: cloud %s oversubscribed: %d of %d cores",
						k.Now(), name, got, l.Total(name))
				}
			}
		})
	}
	k.Run()
	if s.GrowRequests() == 0 {
		t.Fatal("elastic job never attempted to grow; the race was not exercised")
	}
	ei, _ := s.Poll(elastic)
	if ei.GrewBy != 0 {
		t.Fatalf("grow took reserved cores: GrewBy=%d, want 0", ei.GrewBy)
	}
	wi, _ := s.Poll(wide)
	if wi.Started != 200*sim.Second {
		t.Fatalf("reserved gang start delayed: wide started %v, want 200s", wi.Started)
	}
}

// TestGrowSpillsWithoutReservation: the identical scenario minus the wide
// job — with no reservation on a, the same grow is admitted onto a's free
// cores. Proves the denial above is reservation-caused, not a grow
// regression.
func TestGrowSpillsWithoutReservation(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("a", 8, 1, 0.10)
	b.AddCloud("b", 8, 1, 0.10)
	s := New(b, Config{ElasticInterval: 10 * sim.Second, DeadlineMargin: 10 * sim.Second})
	s.Start()
	s.AddTenant("t", 1)
	submitN(t, s, "t", 1, JobSpec{Workers: 3, CoresPerWorker: 2, EstimateSeconds: 200})
	elastic := submitN(t, s, "t", 1, JobSpec{Workers: 4, CoresPerWorker: 2,
		EstimateSeconds: 300, Deadline: 100 * sim.Second, MaxExtraWorkers: 2,
		MR: mapreduce.Job{NumMaps: 30, NumReduces: 2}})[0]
	k.Run()
	ji, _ := s.Poll(elastic)
	if ji.GrewBy == 0 {
		t.Fatal("grow denied with no reservation outstanding")
	}
}

// TestReservationReleasedOnDispatch: once the reserved job dispatches, the
// ledger holds no stale reservation that would starve later growth.
func TestReservationReleasedOnDispatch(t *testing.T) {
	k, b, s, _, wide := raceBackend(t)
	k.Run()
	wi, _ := s.Poll(wide)
	if wi.State != Done {
		t.Fatalf("wide job state %v, want done", wi.State)
	}
	l := b.Ledger()
	for _, name := range []string{"a", "b"} {
		if r := l.Reserved(name); r != 0 {
			t.Errorf("stale reservation of %d cores on %s after quiescence", r, name)
		}
		if f := l.Free(name); f != l.Total(name) {
			t.Errorf("cores leaked on %s: free=%d of %d", name, f, l.Total(name))
		}
	}
}

// TestReservationLeaseHygiene: while the head is blocked, the ledger holds
// exactly the current reservation after every cycle — the reserved plan's
// cores on each member cloud, nothing on any other cloud, and nothing at
// all on a cycle where reservation aging dropped the hold. Both ways a
// cycle keeps its claim are covered: adoption (an identical recompute keeps
// the previous cycle's live leases) and re-reserving (an overdue holder
// moves the reserved start on every recompute).
func TestReservationLeaseHygiene(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	clouds := []string{"a", "b", "c"}
	b.AddCloud("a", 16, 1, 0.10)
	b.AddCloud("b", 16, 1, 0.10)
	b.AddCloud("c", 8, 1, 0.10)
	b.Overrun = func(j *Job) float64 {
		if j.Spec.Name == "liar" {
			return 4 // estimated 100 s, runs 400 s: its release goes overdue
		}
		return 1
	}
	s := New(b, Config{ReservationMaxSlips: 2})
	s.Start()
	s.AddTenant("t", 1)
	// The liars fill a and b and a long job fills c. The head needs a whole
	// 16-core cloud, so it reserves a alone: b ties on score and loses the
	// name tie-break, and c is too small.
	submitN(t, s, "t", 2, JobSpec{Name: "liar", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 100})
	submitN(t, s, "t", 1, JobSpec{Name: "fill", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 1000})
	head := submitN(t, s, "t", 1, JobSpec{Name: "head", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 50})[0]

	l := b.Ledger()
	var adopted, rereserved, aged int
	cycles, reuses, agings := s.Cycles(), s.ResvHoldReuses(), s.ReservationAgings()
	for k.Step() {
		if s.Cycles() == cycles {
			continue
		}
		agedNow := s.ReservationAgings() > agings
		adoptedNow := s.ResvHoldReuses() > reuses
		cycles, reuses, agings = s.Cycles(), s.ResvHoldReuses(), s.ReservationAgings()
		r := s.resv
		if hi, _ := s.Poll(head); hi.State == Queued && (r == nil || r.job != head) {
			t.Fatalf("t=%v: head blocked without its reservation", k.Now())
		}
		var plan Plan
		if r != nil && !agedNow {
			plan = r.plan
		}
		for _, c := range clouds {
			want := plan.WorkersOn(c) * 2 // the head runs 2-core workers
			if got := l.Reserved(c); got != want {
				t.Fatalf("t=%v cycle %d (aged=%v adopted=%v): ledger reserves %d cores on %s, want %d (plan %v)",
					k.Now(), cycles, agedNow, adoptedNow, got, c, want, plan)
			}
		}
		switch {
		case agedNow:
			aged++
		case adoptedNow:
			adopted++
		case r != nil:
			rereserved++
		}
	}
	if adopted == 0 || rereserved == 0 || aged == 0 {
		t.Fatalf("cycles covered: %d adopted, %d re-reserved, %d aged; want each > 0", adopted, rereserved, aged)
	}
	if hi, _ := s.Poll(head); hi.State != Done {
		t.Fatalf("head state %v, want done", hi.State)
	}
}
