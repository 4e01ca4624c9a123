package capacity

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
)

func ledger2() *Ledger {
	l := New()
	l.AddCloud("a", 8)
	l.AddCloud("b", 16)
	return l
}

// checkLeaseLists asserts the ledger's lease bookkeeping: each account
// lists only active leases of its own cloud, in strictly increasing id
// order, and its cached held/reserved aggregates equal those leases' sums.
func checkLeaseLists(l *Ledger) error {
	for _, a := range l.orderAccts {
		held, resv, prev := 0, 0, 0
		for _, le := range a.leases {
			switch {
			case le.closed:
				return fmt.Errorf("%s lists closed lease %d", a.name, le.id)
			case le.id <= prev:
				return fmt.Errorf("%s lists lease %d after lease %d", a.name, le.id, prev)
			case le.acct != a || le.Cloud != a.name:
				return fmt.Errorf("%s lists lease %d of cloud %s", a.name, le.id, le.Cloud)
			}
			prev = le.id
			if le.Kind == Reserved {
				resv += le.Cores
			} else {
				held += le.Cores
			}
		}
		if held != a.held || resv != a.reserved {
			return fmt.Errorf("%s caches held=%d reserved=%d, its leases sum to %d/%d",
				a.name, a.held, a.reserved, held, resv)
		}
	}
	return nil
}

// modelHeadroom is Headroom recomputed outside the ledger, from a cloud's
// total, its committed cores and its active leases as a test tracks them.
// It takes the least spare capacity over `at` and every later instant at
// which some lease starts or ends, where the ledger looks only at `at` and
// later reservation starts.
func modelHeadroom(total, committed int, leases []*Lease, at sim.Time) int {
	load := func(t sim.Time) int {
		n := committed
		for _, le := range leases {
			if le.Kind == Reserved && le.At <= t || le.Kind == Held && (le.End == 0 || le.End > t) {
				n += le.Cores
			}
		}
		return n
	}
	head := total - load(at)
	for _, le := range leases {
		for _, t := range [2]sim.Time{le.At, le.End} {
			if t > at {
				head = min(head, total-load(t))
			}
		}
	}
	return max(head, 0)
}

// TestGeneration: the generation counter moves exactly on cloud-set or
// total-capacity changes — the invalidation signal for cached capacity
// views (the scheduler's federation-wide gang-slot cache).
func TestGeneration(t *testing.T) {
	l := New()
	g0 := l.Generation()
	l.AddCloud("a", 8)
	if l.Generation() == g0 {
		t.Fatal("AddCloud did not bump the generation")
	}
	g1 := l.Generation()
	l.AddCloud("a", 8) // re-add with the same total: no capacity change
	if l.Generation() != g1 {
		t.Fatal("re-adding an identical cloud bumped the generation")
	}
	l.SetTotal("a", 16)
	if l.Generation() == g1 {
		t.Fatal("SetTotal resize did not bump the generation")
	}
	g2 := l.Generation()
	le, _ := l.Acquire("a", 4)
	l.Reserve("a", 2, 100*sim.Second)
	le.Release()
	if l.Generation() != g2 {
		t.Fatal("lease churn bumped the generation (only totals should)")
	}
}

func TestAcquireRespectsCapacity(t *testing.T) {
	l := ledger2()
	le, err := l.Acquire("a", 6)
	if err != nil {
		t.Fatal(err)
	}
	if l.Free("a") != 2 || l.Held("a") != 6 {
		t.Fatalf("free=%d held=%d after acquire", l.Free("a"), l.Held("a"))
	}
	if _, err := l.Acquire("a", 3); err == nil {
		t.Fatal("acquire beyond capacity succeeded")
	}
	if err := le.Commit(); err != nil {
		t.Fatal(err)
	}
	if l.Free("a") != 2 || l.Held("a") != 0 || l.Committed("a") != 6 {
		t.Fatalf("free=%d held=%d committed=%d after commit", l.Free("a"), l.Held("a"), l.Committed("a"))
	}
	l.Uncommit("a", 6)
	if l.Free("a") != 8 {
		t.Fatalf("free=%d after uncommit", l.Free("a"))
	}
}

func TestReleaseIdempotent(t *testing.T) {
	l := ledger2()
	le, _ := l.Acquire("a", 4)
	le.Release()
	le.Release()
	le.Release()
	if l.Free("a") != 8 {
		t.Fatalf("double release minted capacity: free=%d", l.Free("a"))
	}
	// Release after Commit must not touch the committed aggregate.
	le2, _ := l.Acquire("a", 4)
	if err := le2.Commit(); err != nil {
		t.Fatal(err)
	}
	le2.Release()
	if l.Committed("a") != 4 || l.Free("a") != 4 {
		t.Fatalf("release after commit corrupted accounts: committed=%d free=%d",
			l.Committed("a"), l.Free("a"))
	}
}

// TestProbeSeesReservation: the grow-vs-reservation core case — a cloud
// with room today must refuse an indefinite claim that would eat cores a
// future reservation needs.
func TestProbeSeesReservation(t *testing.T) {
	l := ledger2()
	// 6 of 8 cores busy until t=200 (estimated), then an 8-core reservation
	// starts at t=200.
	running, _ := l.AcquireUntil("a", 6, 200*sim.Second)
	resv, _ := l.Reserve("a", 8, 200*sim.Second)
	// 2 cores are free right now, but an indefinite claim would still hold
	// them at t=200 when the reservation needs all 8.
	if l.Probe("a", 2, 0) {
		t.Fatal("probe admitted an indefinite claim across a full reservation")
	}
	// A claim on the other cloud is unaffected.
	if !l.Probe("b", 16, 0) {
		t.Fatal("probe denied an unrelated cloud")
	}
	// Once the reservation is released, the claim fits (running's estimated
	// end frees its cores for any probe at t >= 200).
	resv.Release()
	if !l.Probe("a", 2, 0) {
		t.Fatal("probe denied after reservation release")
	}
	running.Release()
}

// TestProbeHonorsEstimatedEnds: a held lease with an estimated end does not
// block claims probed at or after that end.
func TestProbeHonorsEstimatedEnds(t *testing.T) {
	l := ledger2()
	l.AcquireUntil("a", 8, 100*sim.Second)
	if l.Probe("a", 4, 50*sim.Second) {
		t.Fatal("probe admitted a claim overlapping a full cloud")
	}
	if !l.Probe("a", 8, 100*sim.Second) {
		t.Fatal("probe denied a claim starting at the estimated hand-back")
	}
}

// TestPickGrowTargetOverdueLease: a held lease whose estimated end has
// passed but which was never released still physically holds its cores, so
// the grow policy must not steer a grow onto that cloud (where Acquire
// would fail and abort the whole grow) — it spills to a cloud with real
// free cores instead.
func TestPickGrowTargetOverdueLease(t *testing.T) {
	l := ledger2()
	// 6 of a's 8 cores held with an estimate of t=100 — but the holder has
	// slipped: at t=100 the lease is still active.
	l.AcquireUntil("a", 6, 100*sim.Second)
	got := l.PickGrowTarget([]string{"a"}, []string{"b"}, 4, 100*sim.Second, nil)
	if got != "b" {
		t.Fatalf("grow target = %q, want spill to b (a's overdue lease still holds 6 cores)", got)
	}
	if _, err := l.Acquire(got, 4); err != nil {
		t.Fatalf("picked target not acquirable: %v", err)
	}
	// A worker small enough for a's genuinely free cores still extends in
	// place.
	if got := l.PickGrowTarget([]string{"a"}, []string{"b"}, 2, 100*sim.Second, nil); got != "a" {
		t.Fatalf("grow target = %q, want member a (2 cores genuinely free)", got)
	}
}

// TestProbePartialReservation: growth may take exactly the cores the
// reservation leaves over, and no more.
func TestProbePartialReservation(t *testing.T) {
	l := ledger2()
	l.Reserve("b", 10, 300*sim.Second)
	if !l.Probe("b", 6, 0) {
		t.Fatal("probe denied the cores the reservation leaves over")
	}
	if l.Probe("b", 7, 0) {
		t.Fatal("probe admitted into reserved cores")
	}
	if l.Headroom("b", 0) != 6 {
		t.Fatalf("headroom=%d, want 6", l.Headroom("b", 0))
	}
}

// TestCommitReservationChecksCapacity: a reservation can only convert to
// committed cores when the cloud physically has them.
func TestCommitReservationChecksCapacity(t *testing.T) {
	l := ledger2()
	held, _ := l.Acquire("a", 6)
	resv, _ := l.Reserve("a", 8, 100*sim.Second)
	if err := resv.Commit(); err == nil {
		t.Fatal("reservation committed over live cores")
	}
	held.Release()
	if err := resv.Commit(); err != nil {
		t.Fatalf("commit after release: %v", err)
	}
	if l.Committed("a") != 8 || l.Reserved("a") != 0 {
		t.Fatalf("committed=%d reserved=%d after reservation commit", l.Committed("a"), l.Reserved("a"))
	}
}

// TestEvictLease: evicting a held lease frees its cores and shields them
// with a reservation in the same transition — probes cannot slip a claim in
// between — and double-evict is an idempotent no-op.
func TestEvictLease(t *testing.T) {
	l := ledger2()
	victim, _ := l.AcquireUntil("a", 6, 500*sim.Second)
	g := l.Generation()
	shield, err := l.Evict(victim, 100*sim.Second)
	if err != nil || shield == nil {
		t.Fatalf("evict: shield=%v err=%v", shield, err)
	}
	if l.Generation() == g {
		t.Fatal("evict did not bump the generation")
	}
	if l.Held("a") != 0 || l.Free("a") != 8 || l.Reserved("a") != 6 {
		t.Fatalf("held=%d free=%d reserved=%d after evict", l.Held("a"), l.Free("a"), l.Reserved("a"))
	}
	// The shield shades probes from its start instant exactly like any
	// reservation: an indefinite claim overlapping t=100 is denied the cores.
	if l.Probe("a", 3, 0) {
		t.Fatal("probe took the evicted cores out from under the shield")
	}
	if !l.Probe("a", 2, 0) {
		t.Fatal("probe denied the cores the shield leaves over")
	}
	// Idempotent double-evict: the victim is closed, nothing changes.
	again, err := l.Evict(victim, 200*sim.Second)
	if again != nil || err != nil {
		t.Fatalf("double evict: shield=%v err=%v, want nil/nil", again, err)
	}
	if l.Reserved("a") != 6 || l.Evictions != 1 {
		t.Fatalf("double evict changed state: reserved=%d evictions=%d", l.Reserved("a"), l.Evictions)
	}
	shield.Release()
	if !l.Probe("a", 8, 0) {
		t.Fatal("probe denied after shield release")
	}
}

// TestEvictCommitted: committed cores (placed VMs) evict into a beneficiary
// reservation in one step; evicting more than is committed fails untouched.
func TestEvictCommitted(t *testing.T) {
	l := ledger2()
	if err := l.CommitNow("a", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := l.EvictCommitted("a", 7, 0); err == nil {
		t.Fatal("evicted more cores than are committed")
	}
	if l.Committed("a") != 6 {
		t.Fatalf("failed evict touched the account: committed=%d", l.Committed("a"))
	}
	shield, err := l.EvictCommitted("a", 6, 50*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if l.Committed("a") != 0 || l.Free("a") != 8 || l.Reserved("a") != 6 {
		t.Fatalf("committed=%d free=%d reserved=%d after evict", l.Committed("a"), l.Free("a"), l.Reserved("a"))
	}
	if l.Probe("a", 3, 0) {
		t.Fatal("probe took evicted-committed cores from under the shield")
	}
	shield.Release()
}

// TestRetargetCommitted: the migration transition — committed cores move
// between clouds with the destination checked first, so a failed retarget
// leaves both accounts untouched.
func TestRetargetCommitted(t *testing.T) {
	l := ledger2()
	if err := l.CommitNow("a", 6); err != nil {
		t.Fatal(err)
	}
	l.Acquire("b", 12) // 4 free on b
	if err := l.Retarget("a", "b", 6); err == nil {
		t.Fatal("retarget into a cloud with 4 free cores succeeded")
	}
	if l.Committed("a") != 6 || l.Committed("b") != 0 {
		t.Fatalf("failed retarget moved cores: a=%d b=%d", l.Committed("a"), l.Committed("b"))
	}
	if err := l.Retarget("a", "b", 4); err != nil {
		t.Fatal(err)
	}
	if l.Committed("a") != 2 || l.Committed("b") != 4 || l.Free("b") != 0 {
		t.Fatalf("after retarget: a=%d b=%d freeB=%d", l.Committed("a"), l.Committed("b"), l.Free("b"))
	}
}

// TestLeaseRetarget: a held lease moves (partially) between clouds keeping
// its estimated end, so probes at the hand-back instant stay exact on both
// sides; a full move closes the source lease.
func TestLeaseRetarget(t *testing.T) {
	l := ledger2()
	le, _ := l.AcquireUntil("a", 6, 100*sim.Second)
	moved, err := le.Retarget("b", 4)
	if err != nil {
		t.Fatal(err)
	}
	if l.Held("a") != 2 || l.Held("b") != 4 {
		t.Fatalf("held a=%d b=%d after partial retarget", l.Held("a"), l.Held("b"))
	}
	if moved.End != 100*sim.Second || moved.Kind != Held {
		t.Fatalf("moved lease lost its shape: end=%v kind=%v", moved.End, moved.Kind)
	}
	if !l.Probe("b", 16, 100*sim.Second) {
		t.Fatal("probe at the moved lease's estimated end still sees its cores")
	}
	rest, err := le.Retarget("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	if le.Active() {
		t.Fatal("full retarget left the source lease active")
	}
	if l.Held("a") != 0 || l.Held("b") != 6 {
		t.Fatalf("held a=%d b=%d after full retarget", l.Held("a"), l.Held("b"))
	}
	// Held retargets respect the destination's physical invariant.
	big, _ := l.Acquire("b", 10) // b full: 6 moved + 10
	if _, err := rest.Retarget("a", 2); err != nil {
		t.Fatalf("retarget back to an empty cloud: %v", err)
	}
	if _, err := big.Retarget("a", 10); err == nil {
		t.Fatal("retarget of 10 cores onto an 8-core cloud succeeded")
	}
	// Reservations move freely: they are advisory until committed.
	resv, _ := l.Reserve("b", 16, 300*sim.Second)
	if _, err := resv.Retarget("a", 16); err != nil {
		t.Fatalf("reservation retarget: %v", err)
	}
	if l.Reserved("a") != 16 || l.Reserved("b") != 0 {
		t.Fatalf("reserved a=%d b=%d after reservation retarget", l.Reserved("a"), l.Reserved("b"))
	}
}

// TestLedgerInvariantRandomized drives randomized sequences of
// Reserve/Acquire/Commit/Release — plus the forced transitions Evict,
// EvictCommitted, and Retarget — across clouds and checks, after every
// operation, that committed+held never exceeds TotalCores on any cloud,
// that releases and double-evicts (both idempotent) never mint capacity,
// that each account lists exactly the test's own active lease handles in
// id order, and that Headroom agrees with a model computed from those
// handles.
func TestLedgerInvariantRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := New()
	// The journal observes every transition from the empty ledger onward;
	// the walk periodically asserts Replay(journal) reproduces the live
	// ledger byte for byte — the crash-recovery contract under the full op
	// mix, outages included.
	jrn := NewJournal()
	l.Journal(jrn)
	totals := map[string]int{}
	var names []string
	for c := 0; c < 4; c++ {
		name := fmt.Sprintf("cloud%d", c)
		total := 8 * (1 + rng.Intn(4))
		l.AddCloud(name, total)
		totals[name] = total
		names = append(names, name)
	}
	type entry struct {
		lease     *Lease
		committed bool   // survived a successful Commit (held kind)
		cloud     string // committed cores' current cloud (follows Retarget)
	}
	var live []*entry
	committedBy := map[string]int{} // our model of the committed aggregate
	down := map[string]bool{}       // our model of the failed marks
	check := func(step int) {
		t.Helper()
		if err := checkLeaseLists(l); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// The test's own handles of still-active leases, by cloud: the
		// model the ledger's lease lists and Headroom answers are checked
		// against.
		mine := map[string][]*Lease{}
		for _, e := range live {
			if le := e.lease; le.Active() {
				mine[le.Cloud] = append(mine[le.Cloud], le)
			}
		}
		for _, name := range names {
			c, h := l.Committed(name), l.Held(name)
			ls := mine[name]
			sort.Slice(ls, func(i, j int) bool { return ls[i].id < ls[j].id })
			got := l.accounts[name].leases
			if len(got) != len(ls) {
				t.Fatalf("step %d: %s lists %d leases, the test holds %d active", step, name, len(got), len(ls))
			}
			for i := range ls {
				if got[i] != ls[i] {
					t.Fatalf("step %d: %s lease list[%d] is id %d, want %d", step, name, i, got[i].id, ls[i].id)
				}
			}
			if c+h > totals[name] {
				t.Fatalf("step %d: %s oversubscribed: committed=%d held=%d total=%d",
					step, name, c, h, totals[name])
			}
			if c != committedBy[name] {
				t.Fatalf("step %d: %s committed=%d, model says %d", step, name, c, committedBy[name])
			}
			if l.Failed(name) != down[name] {
				t.Fatalf("step %d: %s failed=%t, model says %t", step, name, l.Failed(name), down[name])
			}
			if down[name] {
				if free := l.Free(name); free != 0 {
					t.Fatalf("step %d: failed %s reports free=%d, want 0", step, name, free)
				}
			} else if free := l.Free(name); free != totals[name]-c-h {
				t.Fatalf("step %d: %s free=%d, want total-committed-held=%d",
					step, name, free, totals[name]-c-h)
			}
			if free := l.Free(name); free < 0 {
				t.Fatalf("step %d: %s negative free=%d", step, name, free)
			}
			for _, at := range []sim.Time{0, 250 * sim.Second, 500 * sim.Second, 1000 * sim.Second} {
				want := 0
				if !down[name] {
					want = modelHeadroom(totals[name], committedBy[name], ls, at)
				}
				if got := l.Headroom(name, at); got != want {
					t.Fatalf("step %d: %s Headroom(%v)=%d, model says %d", step, name, at, got, want)
				}
			}
		}
	}
	for step := 0; step < 5000; step++ {
		cloud := names[rng.Intn(len(names))]
		cores := 1 + rng.Intn(6)
		switch op := rng.Intn(16); {
		case op < 3: // acquire (sometimes with an estimated end)
			var end sim.Time
			if rng.Intn(2) == 0 {
				end = sim.Time(rng.Intn(1000)) * sim.Second
			}
			le, err := l.AcquireUntil(cloud, cores, end)
			if err == nil {
				live = append(live, &entry{lease: le})
			} else if l.Free(cloud) >= cores {
				t.Fatalf("step %d: acquire of %d denied with %d free", step, cores, l.Free(cloud))
			}
		case op < 5: // reserve a future claim
			le, err := l.Reserve(cloud, cores, sim.Time(rng.Intn(1000))*sim.Second)
			if err != nil {
				if !l.Failed(cloud) {
					t.Fatalf("step %d: reserve: %v", step, err)
				}
			} else {
				live = append(live, &entry{lease: le})
			}
		case op < 7 && len(live) > 0: // commit a random lease
			e := live[rng.Intn(len(live))]
			wasActive := e.lease.Active()
			if err := e.lease.Commit(); err == nil && wasActive && !e.committed {
				e.committed = true
				e.cloud = e.lease.Cloud
				committedBy[e.cloud] += e.lease.Cores
			}
		case op < 9 && len(live) > 0: // release (sometimes twice)
			e := live[rng.Intn(len(live))]
			e.lease.Release()
			if rng.Intn(3) == 0 {
				e.lease.Release()
			}
		case op < 10 && len(live) > 0: // evict a lease (sometimes twice)
			e := live[rng.Intn(len(live))]
			wasActive := e.lease.Active()
			shield, err := l.Evict(e.lease, sim.Time(rng.Intn(1000))*sim.Second)
			if err != nil {
				t.Fatalf("step %d: evict: %v", step, err)
			}
			if wasActive != (shield != nil) {
				t.Fatalf("step %d: evict of active=%v lease returned shield=%v", step, wasActive, shield)
			}
			if shield != nil {
				live = append(live, &entry{lease: shield})
			}
			if again, err := l.Evict(e.lease, 0); again != nil || err != nil {
				t.Fatalf("step %d: double evict not idempotent: shield=%v err=%v", step, again, err)
			}
		case op < 11: // evict committed cores into a beneficiary reservation
			for i, e := range live {
				if e.committed {
					shield, err := l.EvictCommitted(e.cloud, e.lease.Cores, sim.Time(rng.Intn(1000))*sim.Second)
					if err != nil {
						t.Fatalf("step %d: evict committed: %v", step, err)
					}
					committedBy[e.cloud] -= e.lease.Cores
					live = append(live[:i], live[i+1:]...)
					live = append(live, &entry{lease: shield})
					break
				}
			}
		case op < 12: // retarget committed cores to another cloud (migration)
			for _, e := range live {
				if e.committed {
					dst := names[rng.Intn(len(names))]
					err := l.Retarget(e.cloud, dst, e.lease.Cores)
					switch {
					case err == nil:
						committedBy[e.cloud] -= e.lease.Cores
						committedBy[dst] += e.lease.Cores
						e.cloud = dst
					case dst != e.cloud && l.Free(dst) >= e.lease.Cores:
						t.Fatalf("step %d: retarget of %d denied with %d free at %s: %v",
							step, e.lease.Cores, l.Free(dst), dst, err)
					}
					break
				}
			}
		case op < 13 && len(live) > 0: // retarget (part of) a live lease
			e := live[rng.Intn(len(live))]
			if !e.lease.Active() {
				break
			}
			dst := names[rng.Intn(len(names))]
			part := 1 + rng.Intn(e.lease.Cores)
			moved, err := e.lease.Retarget(dst, part)
			switch {
			case err == nil:
				if moved != e.lease {
					live = append(live, &entry{lease: moved})
				}
			case e.lease.Kind == Reserved && !l.Failed(dst):
				t.Fatalf("step %d: reservation retarget failed: %v", step, err)
			case l.Free(dst) >= part && dst != e.lease.Cloud:
				t.Fatalf("step %d: held retarget of %d denied with %d free at %s: %v",
					step, part, l.Free(dst), dst, err)
			}
		case op < 14: // uncommit a committed lease's cores (VM terminated)
			for i, e := range live {
				if e.committed {
					l.Uncommit(e.cloud, e.lease.Cores)
					committedBy[e.cloud] -= e.lease.Cores
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		case op < 15: // cloud outage (sometimes twice: must be idempotent)
			if _, err := l.FailCloud(cloud); err != nil {
				t.Fatalf("step %d: fail cloud: %v", step, err)
			}
			if rng.Intn(3) == 0 {
				if again, err := l.FailCloud(cloud); again != 0 || err != nil {
					t.Fatalf("step %d: double fail not idempotent: lost=%d err=%v", step, again, err)
				}
			}
			// The outage closed every lease and zeroed the committed
			// aggregate on the cloud; the model follows.
			down[cloud] = true
			committedBy[cloud] = 0
			for _, e := range live {
				if e.committed && e.cloud == cloud {
					e.committed = false
				}
			}
		default: // restore (idempotent on healthy clouds too)
			if err := l.RestoreCloud(cloud); err != nil {
				t.Fatalf("step %d: restore cloud: %v", step, err)
			}
			down[cloud] = false
		}
		check(step)
		if step%500 == 499 || step == 4999 {
			// Crash-recovery contract: replaying the journal into a fresh
			// ledger reproduces the live ledger's state byte for byte.
			rl, err := Replay(jrn.Recs())
			if err != nil {
				t.Fatalf("step %d: journal replay: %v", step, err)
			}
			if got, want := string(rl.Snapshot()), string(l.Snapshot()); got != want {
				t.Fatalf("step %d: journal replay diverged from live ledger:\nreplay:\n%s\nlive:\n%s",
					step, got, want)
			}
		}
	}
}

// TestProbeUnknownCloud: probing or acquiring on unknown clouds fails
// cleanly.
func TestProbeUnknownCloud(t *testing.T) {
	l := New()
	if l.Probe("ghost", 1, 0) {
		t.Fatal("probe admitted on an unknown cloud")
	}
	if _, err := l.Acquire("ghost", 1); err == nil {
		t.Fatal("acquire on an unknown cloud succeeded")
	}
	if _, err := l.Reserve("ghost", 1, 0); err == nil {
		t.Fatal("reserve on an unknown cloud succeeded")
	}
}

// TestLedgerConcurrentSmoke hammers the ledger from many goroutines under
// -race: mixed acquires/releases/probes/evictions on shared clouds. The
// assertions are the ledger's own invariants at the end; the point is that
// the ledger's lock makes interleavings safe at all.
func TestLedgerConcurrentSmoke(t *testing.T) {
	l := New()
	l.AddCloud("x", 256)
	l.AddCloud("y", 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			clouds := []string{"x", "y"}
			var mine []*Lease
			for i := 0; i < 500; i++ {
				c := clouds[rng.Intn(2)]
				switch rng.Intn(5) {
				case 0, 1:
					if le, err := l.AcquireUntil(c, 1+rng.Intn(4), sim.Time(rng.Intn(1000))*sim.Second); err == nil {
						mine = append(mine, le)
					}
				case 2:
					if len(mine) > 0 {
						k := rng.Intn(len(mine))
						mine[k].Release()
						mine = append(mine[:k], mine[k+1:]...)
					}
				case 3:
					l.Probe(c, rng.Intn(16), sim.Time(rng.Intn(1000))*sim.Second)
					l.Headroom(c, 0)
					l.Generation()
				case 4:
					if len(mine) > 0 && rng.Intn(4) == 0 {
						k := rng.Intn(len(mine))
						if sh, err := l.Evict(mine[k], sim.Time(1000)*sim.Second); err == nil && sh != nil {
							mine[k] = sh
						}
					}
				}
			}
			for _, le := range mine {
				le.Release()
			}
		}(int64(w + 1))
	}
	wg.Wait()
	for _, c := range []string{"x", "y"} {
		if l.Held(c) != 0 || l.Reserved(c) != 0 {
			t.Fatalf("%s: held=%d reserved=%d after all releases", c, l.Held(c), l.Reserved(c))
		}
		if l.Free(c) != 256-l.Committed(c) {
			t.Fatalf("%s: free=%d committed=%d total=256", c, l.Free(c), l.Committed(c))
		}
	}
}
