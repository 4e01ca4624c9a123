// Package capacity is the federation's unified core-accounting ledger: one
// per-cloud record of where cores are and where they are promised, shared
// by every layer that makes capacity decisions. Before it existed the repo
// answered "does this cloud have room?" in three disagreeing places —
// nimbus committed cores only when image propagation ended, the federation
// scheduler backend kept a private in-flight reservation map to paper over
// that window, and the scheduler's backfill rebuilt free-core vectors from
// scratch every cycle — which let an elastic grow race a reserved gang
// start. The ledger replaces all three with one account per cloud holding
// three kinds of claim:
//
//   - committed cores: placed VMs, held indefinitely until released
//     (nimbus host placement double-enters here);
//   - held leases: cores taken now by an in-flight admission or a running
//     job, optionally carrying an estimated release instant (backends with
//     runtime estimates set it, so future probes see the hand-back);
//   - reserved leases: future claims starting at a known instant — the
//     scheduler's backfill reservation lives here between cycles, visible
//     to every grower.
//
// Admission (Acquire) enforces the physical invariant committed + held ≤
// total; reservations are advisory claims that gate policy decisions
// through Probe, which answers "could an indefinite claim of n cores
// starting at t ever oversubscribe this cloud?" honoring held leases'
// estimated ends and reservations' start instants.
//
// Each account caches its per-kind core totals, so Free and every admission
// check are O(1), and lists its active leases in id order; Probe and
// Headroom walk that list. They run rarely next to lease creation and
// closing, so the walk costs less overall than an index those hot
// transitions would have to maintain.
//
// The ledger takes no lock. Every caller runs on the simulation kernel's
// one thread; the only other goroutine that reads it is a live /metrics
// scrape, whose collector runs under the registry's scrape lock, which the
// kernel loop holds while it steps (obs.Registry.SetScrapeLock).
package capacity

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Kind distinguishes a lease's claim class.
type Kind int

const (
	// Held cores are taken now: an in-flight admission or a running job.
	Held Kind = iota
	// Reserved cores are a future claim starting at the lease's At instant.
	Reserved
)

func (k Kind) String() string {
	if k == Reserved {
		return "reserved"
	}
	return "held"
}

// Lease is one claim on a cloud's cores. Lifecycle: Acquire/Reserve creates
// it, Commit retires it into the committed aggregate (a held in-flight
// admission whose VMs landed, or a reservation whose gang is starting), and
// Release drops it. Both Commit and Release are terminal; Release is
// idempotent.
type Lease struct {
	l *Ledger
	// acct is the account the lease lives in — cached so the per-lease
	// lifecycle transitions (commit, release, retarget-out) skip the
	// accounts map hash on the scheduler's hot path.
	acct *account

	id    int
	Cloud string
	Cores int
	Kind  Kind
	// At is the reservation's future start instant (load-bearing: Probe
	// counts the reservation only from At onward). Always zero for held
	// leases, which claim cores from acquisition until release.
	At sim.Time
	// End is the estimated release instant (0 = unknown/indefinite). Probes
	// at t ≥ End treat the cores as handed back — estimates, not promises;
	// the holder still must Release.
	End sim.Time

	closed bool
}

// Active reports whether the lease still claims cores (not yet committed or
// released).
func (le *Lease) Active() bool { return !le.closed }

// account is one cloud's ledger entry. held and reserved cache the active
// lease cores per kind (maintained at lease create/commit/release), so the
// hot-path aggregates (Free, every Acquire check) are O(1). Only the rare
// time-dependent reads (Probe, Headroom) walk the leases themselves.
type account struct {
	name      string
	total     int
	committed int
	held      int
	reserved  int
	// failed marks a cloud in outage: admission, reservation, probes, and
	// retargets onto it all refuse, and its free cores read as zero, until
	// RestoreCloud clears the mark. total is kept so federation-wide
	// fits-at-all checks still see the cloud coming back.
	failed bool
	// leases holds the cloud's active leases in increasing id order. Ids
	// only grow, so a new lease appends and a closing one is found by
	// binary search.
	leases []*Lease
}

func (a *account) kindCores(k Kind) *int {
	if k == Reserved {
		return &a.reserved
	}
	return &a.held
}

// find returns the position of lease id in the account's lease list, or
// len(a.leases) when the account holds no such lease.
func (a *account) find(id int) int {
	i := sort.Search(len(a.leases), func(i int) bool { return a.leases[i].id >= id })
	if i < len(a.leases) && a.leases[i].id != id {
		return len(a.leases)
	}
	return i
}

// unlink closes the lease and drops its claim from the account: out of the
// lease list and out of its kind's aggregate.
func (a *account) unlink(le *Lease) {
	i := a.find(le.id)
	copy(a.leases[i:], a.leases[i+1:])
	a.leases[len(a.leases)-1] = nil
	a.leases = a.leases[:len(a.leases)-1]
	*a.kindCores(le.Kind) -= le.Cores
	le.closed = true
}

// Ledger is the shared capacity ledger. One instance spans a federation
// (every nimbus cloud plus the scheduler see the same accounts); backends
// without a federation (SimBackend, standalone nimbus clouds) own private
// instances with identical semantics.
type Ledger struct {
	seq      int
	accounts map[string]*account
	// orderAccts lists the accounts in name order, so the bulk reads
	// (FreeTotals, String, the gauge collector) walk a slice instead of
	// hashing every name.
	orderAccts []*account

	// Evictions and Retargets count forced transitions, for stats surfaces.
	Evictions int
	Retargets int

	// jrn, when attached, records every primitive state transition for
	// crash recovery (see journal.go). Nil when journaling is off — the
	// per-transition cost is then one nil check.
	jrn *Journal

	// m mirrors transition counts into a registry when Instrument was
	// called; zero-value (nil instruments) otherwise.
	m ledgerMetrics
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{accounts: make(map[string]*account)}
}

// AddCloud registers a cloud's total core capacity. Re-adding an existing
// cloud only updates its total.
func (l *Ledger) AddCloud(name string, totalCores int) {
	if a, ok := l.accounts[name]; ok {
		if a.total != totalCores {
			a.total = totalCores
			l.jrec(Rec{Op: OpCloud, Cloud: name, Cores: totalCores})
		}
		return
	}
	a := &account{name: name, total: totalCores}
	l.accounts[name] = a
	i := sort.Search(len(l.orderAccts), func(i int) bool { return l.orderAccts[i].name >= name })
	l.orderAccts = slices.Insert(l.orderAccts, i, a)
	l.jrec(Rec{Op: OpCloud, Cloud: name, Cores: totalCores})
}

// SetTotal updates a cloud's capacity (backends whose clouds resize).
func (l *Ledger) SetTotal(name string, totalCores int) { l.AddCloud(name, totalCores) }

// Total returns a cloud's core capacity (0 for unknown clouds).
func (l *Ledger) Total(cloud string) int {
	if a := l.accounts[cloud]; a != nil {
		return a.total
	}
	return 0
}

// Committed returns the cores of placed VMs on a cloud.
func (l *Ledger) Committed(cloud string) int {
	if a := l.accounts[cloud]; a != nil {
		return a.committed
	}
	return 0
}

// Held returns the cores of active held leases on a cloud.
func (l *Ledger) Held(cloud string) int {
	if a := l.accounts[cloud]; a != nil {
		return a.held
	}
	return 0
}

// Reserved returns the cores of active future reservations on a cloud.
func (l *Ledger) Reserved(cloud string) int {
	if a := l.accounts[cloud]; a != nil {
		return a.reserved
	}
	return 0
}

// Free returns the cores available right now: total minus committed minus
// held. Future reservations do not reduce Free — they gate policy decisions
// through Probe, not physical admission.
func (l *Ledger) Free(cloud string) int {
	a := l.accounts[cloud]
	if a == nil || a.failed {
		return 0
	}
	return a.total - a.committed - a.held
}

// FreeTotals calls fn(name, free, total) for every registered cloud in name
// order — the bulk form of Free+Total for per-cycle snapshots and the
// federation fit check, one walk of the account list with no name lookups.
func (l *Ledger) FreeTotals(fn func(name string, free, total int)) {
	for _, a := range l.orderAccts {
		free := a.total - a.committed - a.held
		if a.failed {
			free = 0
		}
		fn(a.name, free, a.total)
	}
}

// Headroom returns the cores a new indefinite claim could take at time
// `at` without ever oversubscribing the cloud — the largest n for which
// Probe(cloud, n, at) holds. Growers rank spill targets by it.
func (l *Ledger) Headroom(cloud string, at sim.Time) int {
	a := l.accounts[cloud]
	if a == nil || a.failed {
		return 0
	}
	// Load only rises when a reservation starts, so the tightest instant
	// from `at` onward is `at` itself or a later reservation start.
	head := a.total - a.loadAt(at)
	for _, le := range a.leases {
		if le.Kind == Reserved && le.At > at {
			if h := a.total - a.loadAt(le.At); h < head {
				head = h
			}
		}
	}
	if head < 0 {
		return 0
	}
	return head
}

// PickGrowTarget chooses the cloud for one extra worker of `cores` cores —
// the grow-target policy shared by the federation backend (fedHandle) and
// SimBackend, so the two cannot drift: plan member clouds in order first
// (the gang extends in place), then the spill candidate with the most
// reservation-aware headroom (candidates must be pre-sorted; ties keep the
// earliest). Every choice is vetted with Probe at `at` — so growth is
// denied cores an outstanding reservation will need — AND against Free, so
// the pick is acquirable at the call instant: Probe trusts a held lease's
// estimated end, but an overdue lease (End ≤ at, holder hasn't released)
// still physically holds its cores, and without the Free gate a slipped
// estimate would steer the grow onto a cloud where Acquire must fail
// instead of spilling to one with real room. alloc counts cores already
// assigned per cloud by the same multi-worker grow but not yet acquired
// (nil when the caller acquires incrementally). Returns "" when no cloud
// qualifies.
func (l *Ledger) PickGrowTarget(members, spill []string, cores int, at sim.Time, alloc map[string]int) string {
	for _, m := range members {
		need := alloc[m] + cores
		if l.Free(m) >= need && l.Probe(m, need, at) {
			return m
		}
	}
	best, bestHead := "", 0
	for _, c := range spill {
		need := alloc[c] + cores
		if l.Free(c) < need {
			continue
		}
		head := l.Headroom(c, at) - alloc[c]
		if head < cores {
			continue
		}
		if best == "" || head > bestHead {
			best, bestHead = c, head
		}
	}
	return best
}

// loadAt returns the cores claimed at instant t: committed (indefinite),
// held leases not yet past their estimated end, and reservations whose
// start has arrived by t (reservations carry no end — Reserve never sets
// one). One walk over the account's active leases.
func (a *account) loadAt(t sim.Time) int {
	n := a.committed
	for _, le := range a.leases {
		if le.Kind == Reserved {
			if le.At <= t {
				n += le.Cores
			}
		} else if le.End == 0 || le.End > t {
			n += le.Cores
		}
	}
	return n
}

// Probe reports whether a new indefinite claim of `cores` starting at `at`
// could be admitted without driving the cloud over capacity at any instant
// from `at` onward — exactly Headroom(cloud, at) ≥ cores. Held leases with
// estimated ends hand their cores back at those instants; reservations add
// theirs at their start instants — so an elastic grow probing "now" is
// denied when it would eat cores a backfill reservation needs at its future
// start, even though the cloud has room today. It walks the cloud's active
// leases once per future reservation start; the scheduler's elastic pass is
// its only frequent caller.
func (l *Ledger) Probe(cloud string, cores int, at sim.Time) bool {
	l.m.probes.Inc()
	if l.accounts[cloud] == nil {
		return false
	}
	if cores <= 0 {
		return true
	}
	return l.Headroom(cloud, at) >= cores
}

// Acquire claims cores held from now — the admission gate. Fails when the
// physical invariant committed + held + cores ≤ total would break. Future
// reservations do not block acquisition (a backfilled job legitimately
// starts "under" a reservation it will outlive-proof via Probe/backfill
// policy); policy layers must Probe first when their claim is indefinite.
func (l *Ledger) Acquire(cloud string, cores int) (*Lease, error) {
	return l.AcquireUntil(cloud, cores, 0)
}

// AcquireUntil is Acquire with an estimated release instant (0 = unknown),
// letting future probes see the hand-back.
func (l *Ledger) AcquireUntil(cloud string, cores int, end sim.Time) (*Lease, error) {
	a := l.accounts[cloud]
	if a == nil {
		return nil, fmt.Errorf("capacity: unknown cloud %q", cloud)
	}
	if cores < 0 {
		return nil, fmt.Errorf("capacity: negative acquisition of %d cores on %s", cores, cloud)
	}
	if a.failed {
		return nil, fmt.Errorf("capacity: acquiring on failed cloud %q", cloud)
	}
	if free := l.Free(cloud); free < cores {
		return nil, fmt.Errorf("capacity: %s has %d free cores, need %d", cloud, free, cores)
	}
	l.m.acquires.Inc()
	return l.newLease(a, cores, Held, 0, end), nil
}

// Reserve records a future claim of cores starting at `at`. Reservations
// are advisory — they are not bounded by current free cores (the cloud
// being full now is exactly why a claim must wait for `at`) — but they are
// first-class ledger state: Probe charges them to every overlapping
// indefinite claim until the holder commits or releases.
func (l *Ledger) Reserve(cloud string, cores int, at sim.Time) (*Lease, error) {
	a := l.accounts[cloud]
	if a == nil {
		return nil, fmt.Errorf("capacity: unknown cloud %q", cloud)
	}
	if cores < 0 {
		return nil, fmt.Errorf("capacity: negative reservation of %d cores on %s", cores, cloud)
	}
	if a.failed {
		return nil, fmt.Errorf("capacity: reserving on failed cloud %q", cloud)
	}
	l.m.reserves.Inc()
	return l.newLease(a, cores, Reserved, at, 0), nil
}

func (l *Ledger) newLease(a *account, cores int, k Kind, at, end sim.Time) *Lease {
	l.seq++
	le := &Lease{l: l, acct: a, id: l.seq, Cloud: a.name, Cores: cores, Kind: k, At: at, End: end}
	a.leases = append(a.leases, le)
	*a.kindCores(k) += cores
	l.jrec(Rec{Op: OpLease, Cloud: a.name, ID: le.id, Cores: cores, Kind: int(k), At: int64(at), End: int64(end)})
	return le
}

// Commit retires the lease into the committed aggregate: a held in-flight
// admission whose VMs have been placed, or a reservation whose gang starts
// now. Committing a reservation re-checks the physical invariant (the
// cores move from advisory to held-equivalent); committing a held lease
// cannot fail. Commit on a closed lease is a no-op.
func (le *Lease) Commit() error {
	if le.closed {
		return nil
	}
	a := le.acct
	if le.Kind == Reserved {
		if free := le.l.Free(le.Cloud); free < le.Cores {
			return fmt.Errorf("capacity: committing reservation of %d cores on %s with %d free",
				le.Cores, le.Cloud, free)
		}
	}
	a.unlink(le)
	a.committed += le.Cores
	le.l.jrec(Rec{Op: OpCommit, ID: le.id})
	return nil
}

// Release drops the lease's claim. Idempotent: releasing a committed or
// already-released lease does nothing (the committed cores are returned
// through Ledger.Uncommit when their VMs terminate).
func (le *Lease) Release() {
	if le.closed {
		return
	}
	le.acct.unlink(le)
	le.l.jrec(Rec{Op: OpRelease, ID: le.id})
}

// Uncommit returns committed cores to the pool (VM termination, shrink,
// revocation, migration away). Clamps at zero rather than going negative so
// double releases cannot mint capacity.
func (l *Ledger) Uncommit(cloud string, cores int) {
	a := l.accounts[cloud]
	if a == nil {
		return
	}
	a.committed -= cores
	if a.committed < 0 {
		a.committed = 0
	}
	l.jrec(Rec{Op: OpUncommit, Cloud: cloud, Cores: cores})
}

// CommitNow acquires and immediately commits cores — single-step admission
// for placements with no in-flight window (an inbound migrated VM).
func (l *Ledger) CommitNow(cloud string, cores int) error {
	le, err := l.Acquire(cloud, cores)
	if err != nil {
		return err
	}
	return le.Commit()
}

// Evict is the preemption transition for leased claims: the victim lease
// (held or reserved) closes and a Reserved lease for the same cores on the
// same cloud, starting at `at`, is created in the same step — no instant
// exists where the cores are unclaimed for a third-party grow to probe and
// take ahead of the preemptor. The caller hands the returned shield lease
// to the beneficiary (the blocked head job), which releases it once its own
// acquisition lands. Idempotent: evicting an already-closed lease is a
// no-op returning (nil, nil).
func (l *Ledger) Evict(victim *Lease, at sim.Time) (*Lease, error) {
	if victim == nil || victim.closed {
		return nil, nil
	}
	if victim.l != l {
		return nil, fmt.Errorf("capacity: lease belongs to another ledger")
	}
	cloud, cores := victim.Cloud, victim.Cores
	victim.Release()
	shield, err := l.Reserve(cloud, cores, at)
	if err != nil {
		return nil, err
	}
	l.Evictions++
	l.m.evictions.Inc()
	return shield, nil
}

// EvictCommitted is Evict for committed cores (placed VMs carry no lease
// object): `cores` committed cores on `cloud` return to the pool and a
// Reserved lease for the beneficiary at `at` takes their place in one
// transition. The caller still tears the victim VMs down — through a path
// that must NOT Uncommit again (nimbus Cloud.ReleaseLedgered), since the
// ledger side of the eviction already happened here. Evicting more than is
// committed fails without touching anything.
func (l *Ledger) EvictCommitted(cloud string, cores int, at sim.Time) (*Lease, error) {
	a := l.accounts[cloud]
	if a == nil {
		return nil, fmt.Errorf("capacity: unknown cloud %q", cloud)
	}
	if cores < 0 || cores > a.committed {
		return nil, fmt.Errorf("capacity: evicting %d committed cores on %s with %d committed",
			cores, cloud, a.committed)
	}
	a.committed -= cores
	l.jrec(Rec{Op: OpUncommit, Cloud: cloud, Cores: cores})
	shield := l.newLease(a, cores, Reserved, at, 0)
	l.Evictions++
	l.m.evictions.Inc()
	return shield, nil
}

// Retarget atomically moves committed cores between clouds — the migration
// transition for placed VMs. The destination's physical invariant is
// checked before the source account is touched, then the cores move
// committed→committed with no free instant in between, so a migration
// cannot lose its capacity to an acquire in between the way a
// release-then-adopt sequence could. Host-level bookkeeping moves through
// the ledger-skipping paths (nimbus ReleaseLedgered/AdoptLedgered).
func (l *Ledger) Retarget(from, to string, cores int) error {
	src, dst := l.accounts[from], l.accounts[to]
	if src == nil {
		return fmt.Errorf("capacity: unknown cloud %q", from)
	}
	if dst == nil {
		return fmt.Errorf("capacity: unknown cloud %q", to)
	}
	if cores < 0 || cores > src.committed {
		return fmt.Errorf("capacity: retargeting %d committed cores from %s with %d committed",
			cores, from, src.committed)
	}
	if free := l.Free(to); free < cores {
		return fmt.Errorf("capacity: %s has %d free cores, retarget needs %d", to, free, cores)
	}
	src.committed -= cores
	dst.committed += cores
	l.jrec(Rec{Op: OpMove, Cloud: from, To: to, Cores: cores})
	l.Retargets++
	l.m.retargets.Inc()
	return nil
}

// Retarget atomically moves `cores` of the lease's claim to another cloud,
// returning the lease now holding them there (the remainder, if any, stays
// behind on the source, shrunk in place under its original id). Held claims
// re-check the destination's physical invariant; reservations move freely
// (they are advisory until committed). The moved cores become a new lease
// on the destination with the same kind, start, and estimated end, so a
// consolidating gang member's hand-back estimate survives the move and the
// destination's probes see it exactly. Fails without touching either
// account when the destination lacks room or the lease is closed.
func (le *Lease) Retarget(to string, cores int) (*Lease, error) {
	l := le.l
	if le.closed {
		return nil, fmt.Errorf("capacity: retargeting a closed lease")
	}
	if cores <= 0 || cores > le.Cores {
		return nil, fmt.Errorf("capacity: retargeting %d of a %d-core lease", cores, le.Cores)
	}
	dst := l.accounts[to]
	if dst == nil {
		return nil, fmt.Errorf("capacity: unknown cloud %q", to)
	}
	if to == le.Cloud {
		return le, nil
	}
	if dst.failed {
		return nil, fmt.Errorf("capacity: retargeting onto failed cloud %q", to)
	}
	if le.Kind == Held {
		if free := l.Free(to); free < cores {
			return nil, fmt.Errorf("capacity: %s has %d free cores, retarget needs %d", to, free, cores)
		}
	}
	if cores == le.Cores {
		le.Release()
	} else {
		le.Cores -= cores
		*le.acct.kindCores(le.Kind) -= cores
		l.jrec(Rec{Op: OpShrink, ID: le.id, Cores: cores})
	}
	moved := l.newLease(dst, cores, le.Kind, le.At, le.End)
	l.Retargets++
	l.m.retargets.Inc()
	return moved, nil
}

// FailCloud is the outage transition: the cloud's every active lease (held
// and reserved) closes, its committed cores return to the pool, and the
// account is marked failed — all in one call, so no probe can observe a
// half-dead cloud. While failed, the cloud admits nothing:
// Acquire/Reserve/Retarget-onto refuse, Free and Headroom read zero, Probe
// fails. Total capacity is kept so federation-wide "could this ever fit"
// checks still count the cloud as coming back.
// Idempotent: failing a failed cloud does nothing and returns 0. Returns the
// cores lost (lease + committed), for the caller's outage accounting.
func (l *Ledger) FailCloud(name string) (int, error) {
	a := l.accounts[name]
	if a == nil {
		return 0, fmt.Errorf("capacity: unknown cloud %q", name)
	}
	if a.failed {
		return 0, nil
	}
	lost := 0
	for len(a.leases) > 0 {
		le := a.leases[0]
		lost += le.Cores
		le.Release()
	}
	if a.committed > 0 {
		lost += a.committed
		l.jrec(Rec{Op: OpUncommit, Cloud: name, Cores: a.committed})
		a.committed = 0
	}
	a.failed = true
	l.jrec(Rec{Op: OpFail, Cloud: name})
	l.m.cloudFailures.Inc()
	return lost, nil
}

// RestoreCloud clears a cloud's failed mark: its full capacity is free
// again (everything on it was evicted at failure). Idempotent.
func (l *Ledger) RestoreCloud(name string) error {
	a := l.accounts[name]
	if a == nil {
		return fmt.Errorf("capacity: unknown cloud %q", name)
	}
	if !a.failed {
		return nil
	}
	a.failed = false
	l.jrec(Rec{Op: OpRestore, Cloud: name})
	l.m.cloudRestores.Inc()
	return nil
}

// Failed reports whether the cloud is in a FailCloud outage.
func (l *Ledger) Failed(name string) bool {
	a := l.accounts[name]
	return a != nil && a.failed
}

// String renders one line per cloud for debugging and logs.
func (l *Ledger) String() string {
	out := ""
	for _, a := range l.orderAccts {
		out += fmt.Sprintf("%s: total=%d committed=%d held=%d reserved=%d free=%d\n",
			a.name, a.total, a.committed, a.held, a.reserved, a.total-a.committed-a.held)
	}
	return out
}
