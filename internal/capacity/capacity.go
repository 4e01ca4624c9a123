// Package capacity is the federation's unified core-accounting ledger: one
// per-cloud, time-indexed record of where cores are and where they are
// promised, shared by every layer that makes capacity decisions. Before it
// existed the repo answered "does this cloud have room?" in three
// disagreeing places — nimbus committed cores only when image propagation
// ended, the federation scheduler backend kept a private in-flight
// reservation map to paper over that window, and the scheduler's backfill
// rebuilt free-core vectors from scratch every cycle — which let an elastic
// grow race a reserved gang start. The ledger replaces all three with one
// account per cloud holding three kinds of claim:
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
// The ledger is safe for concurrent use: every public method takes an
// instrumented reader/writer lock (contention is exported through
// Instrument as the sky_lock_* families), and Generation is a lock-free
// atomic read so hot-path cache-validity checks never serialize on the
// lock. The scheduler drives the ledger from its single kernel thread, so
// the lock is uncontended there; it exists so an external surface (a
// metrics scrape, a daemon API) can read concurrently without corrupting
// anything.
package capacity

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/lock"
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
func (le *Lease) Active() bool {
	le.l.mu.RLock()
	defer le.l.mu.RUnlock()
	return !le.closed
}

// account is one cloud's ledger entry. held and reserved cache the active
// lease cores per kind (maintained at lease create/commit/release), so the
// hot-path aggregates (Free, every Acquire check) are O(1) instead of
// walking the lease map. heldEnds and resvStarts are sorted time indexes
// over the two time-dependent lease populations (held leases with estimated
// ends, reservations with future starts), so the Probe/Headroom path reads
// time-indexed aggregates in O(log n) instead of walking every lease per
// candidate.
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
	leases map[int]*Lease
	// heldEnds indexes active held leases with a nonzero estimated end,
	// keyed by End; resvStarts indexes active reservations, keyed by At.
	heldEnds   timeIndex
	resvStarts timeIndex
}

func (a *account) kindCores(k Kind) *int {
	if k == Reserved {
		return &a.reserved
	}
	return &a.held
}

// timedCores is one time index entry: the cores a lease hands back (held
// ends) or claims (reservation starts) at instant at. Entries are ordered by
// (at, id); lease ids are unique, so the pair is a total order.
type timedCores struct {
	at    sim.Time
	id    int
	cores int
}

// idxBucketMax is the split threshold of a timeIndex bucket. Buckets merge
// back when a removal leaves one under a quarter of this and a neighbour
// has room, so the structure stays compact under churn.
const idxBucketMax = 128

// idxBucket is one node of the unrolled time index: a sorted run of entries
// plus a local prefix-sum of their cores, so a within-bucket "cores by t"
// read is one binary search and one array load.
type idxBucket struct {
	ents []timedCores
	cum  []int // cum[i] = Σ ents[:i+1].cores
}

func (b *idxBucket) sum() int {
	if len(b.cum) == 0 {
		return 0
	}
	return b.cum[len(b.cum)-1]
}

// search returns the index of the first entry ordered at or after (at, id).
func (b *idxBucket) search(at sim.Time, id int) int {
	return sort.Search(len(b.ents), func(i int) bool {
		e := b.ents[i]
		return e.at > at || (e.at == at && e.id >= id)
	})
}

// recum rebuilds the bucket's prefix sums from position i onward.
func (b *idxBucket) recum(i int) {
	prev := 0
	if i > 0 {
		prev = b.cum[i-1]
	}
	for ; i < len(b.ents); i++ {
		prev += b.ents[i].cores
		b.cum[i] = prev
	}
}

// timeIndex is an unrolled sorted list of timedCores: a slice of bounded
// buckets with per-bucket and per-index prefix sums. It answers "how many
// cores by instant t" in O(log n) like the flat prefix-summed slice it
// replaces, but inserts and removes touch one bucket (≤ idxBucketMax
// entries) plus the O(n/idxBucketMax) bucket summary — instead of an O(n)
// memmove over every entry — so the index stays cheap at the lease counts
// the trace-scale harness targets (ROADMAP item 3), not just at thousands.
type timeIndex struct {
	buckets []*idxBucket
	bcum    []int // bcum[i] = Σ buckets[:i+1].sum()
	n       int
	// spare caches the last dropped bucket for reuse: small indexes
	// oscillate between empty and one entry on every lease churn (one
	// held-end per launch/complete round trip), and without it each swing
	// re-allocates a bucket and both its arrays.
	spare *idxBucket
}

// len returns the number of entries (test/oracle surface).
func (x *timeIndex) size() int { return x.n }

// bucketFor returns the index of the bucket whose key range covers (at,
// id): the first bucket whose last entry orders at or after it, or
// len(buckets) when every bucket ends before it.
func (x *timeIndex) bucketFor(at sim.Time, id int) int {
	return sort.Search(len(x.buckets), func(i int) bool {
		b := x.buckets[i]
		e := b.ents[len(b.ents)-1]
		return e.at > at || (e.at == at && e.id >= id)
	})
}

// rebcum rebuilds the bucket-level prefix sums from bucket i onward — the
// slow path after a structural change (split, merge, bucket drop).
func (x *timeIndex) rebcum(i int) {
	prev := 0
	if i > 0 {
		prev = x.bcum[i-1]
	}
	for ; i < len(x.buckets); i++ {
		prev += x.buckets[i].sum()
		x.bcum[i] = prev
	}
}

// bcumShift applies a single-bucket core delta to the bucket prefix sums —
// the common path when an add/remove touched bucket i without changing the
// bucket set.
func (x *timeIndex) bcumShift(i, delta int) {
	for ; i < len(x.bcum); i++ {
		x.bcum[i] += delta
	}
}

// takeSpare returns the cached spare bucket (emptied, capacity retained)
// or a fresh one.
func (x *timeIndex) takeSpare() *idxBucket {
	b := x.spare
	if b == nil {
		return &idxBucket{}
	}
	x.spare = nil
	b.ents = b.ents[:0]
	b.cum = b.cum[:0]
	return b
}

func (x *timeIndex) add(at sim.Time, id, cores int) {
	x.n++
	if len(x.buckets) == 0 {
		b := x.takeSpare()
		b.ents = append(b.ents, timedCores{at: at, id: id, cores: cores})
		b.cum = append(b.cum, cores)
		x.buckets = append(x.buckets, b)
		x.bcum = append(x.bcum, cores)
		return
	}
	bi := x.bucketFor(at, id)
	if bi == len(x.buckets) {
		bi--
	}
	b := x.buckets[bi]
	j := b.search(at, id)
	b.ents = append(b.ents, timedCores{})
	copy(b.ents[j+1:], b.ents[j:])
	b.ents[j] = timedCores{at: at, id: id, cores: cores}
	b.cum = append(b.cum, 0)
	b.recum(j)
	if len(b.ents) > idxBucketMax {
		x.split(bi)
		x.rebcum(bi)
	} else {
		x.bcumShift(bi, cores)
	}
}

// split divides bucket bi in half; the caller fixes the bucket prefix sums.
func (x *timeIndex) split(bi int) {
	b := x.buckets[bi]
	half := len(b.ents) / 2
	nb := x.takeSpare()
	nb.ents = append(nb.ents, b.ents[half:]...)
	if n := len(b.ents) - half; cap(nb.cum) < n {
		nb.cum = make([]int, n)
	} else {
		nb.cum = nb.cum[:n]
	}
	nb.recum(0)
	b.ents = b.ents[:half]
	b.cum = b.cum[:half] // prefix property: the left half is already correct
	x.buckets = append(x.buckets, nil)
	copy(x.buckets[bi+2:], x.buckets[bi+1:])
	x.buckets[bi+1] = nb
	x.bcum = append(x.bcum, 0)
}

func (x *timeIndex) remove(at sim.Time, id int) {
	bi := x.bucketFor(at, id)
	if bi == len(x.buckets) {
		return
	}
	b := x.buckets[bi]
	j := b.search(at, id)
	if j >= len(b.ents) || b.ents[j].id != id || b.ents[j].at != at {
		return
	}
	cores := b.ents[j].cores
	copy(b.ents[j:], b.ents[j+1:])
	b.ents = b.ents[:len(b.ents)-1]
	b.cum = b.cum[:len(b.cum)-1]
	b.recum(j)
	x.n--
	switch {
	case len(b.ents) == 0:
		x.buckets = append(x.buckets[:bi], x.buckets[bi+1:]...)
		x.bcum = x.bcum[:len(x.bcum)-1]
		x.rebcum(bi)
		x.spare = b
	case len(b.ents) < idxBucketMax/4 && bi+1 < len(x.buckets) &&
		len(b.ents)+len(x.buckets[bi+1].ents) <= idxBucketMax*3/4:
		x.merge(bi)
		x.rebcum(bi)
	default:
		x.bcumShift(bi, -cores)
	}
}

// merge folds bucket bi+1 into bucket bi; the caller fixes the bucket
// prefix sums.
func (x *timeIndex) merge(bi int) {
	b, nb := x.buckets[bi], x.buckets[bi+1]
	at := len(b.ents)
	b.ents = append(b.ents, nb.ents...)
	b.cum = append(b.cum, nb.cum...)
	b.recum(at)
	x.buckets = append(x.buckets[:bi+1], x.buckets[bi+2:]...)
	x.bcum = x.bcum[:len(x.bcum)-1]
	x.spare = nb
}

// coresBy returns the total cores of entries with at <= t.
func (x *timeIndex) coresBy(t sim.Time) int {
	bi := sort.Search(len(x.buckets), func(i int) bool {
		b := x.buckets[i]
		return b.ents[len(b.ents)-1].at > t
	})
	total := 0
	if bi > 0 {
		total = x.bcum[bi-1]
	}
	if bi == len(x.buckets) {
		return total
	}
	b := x.buckets[bi]
	if j := sort.Search(len(b.ents), func(k int) bool { return b.ents[k].at > t }); j > 0 {
		total += b.cum[j-1]
	}
	return total
}

// idxIter walks index entries in (at, id) order. It is a value type so
// iteration allocates nothing; do not mutate the index mid-walk.
type idxIter struct {
	x  *timeIndex
	bi int
	j  int
}

// iterAfter positions an iterator at the first entry with at > t.
func (x *timeIndex) iterAfter(t sim.Time) idxIter {
	bi := sort.Search(len(x.buckets), func(i int) bool {
		b := x.buckets[i]
		return b.ents[len(b.ents)-1].at > t
	})
	it := idxIter{x: x, bi: bi}
	if bi < len(x.buckets) {
		b := x.buckets[bi]
		it.j = sort.Search(len(b.ents), func(k int) bool { return b.ents[k].at > t })
	}
	return it
}

// next returns the following entry, or false when the walk is done.
func (it *idxIter) next() (timedCores, bool) {
	for it.bi < len(it.x.buckets) {
		b := it.x.buckets[it.bi]
		if it.j < len(b.ents) {
			e := b.ents[it.j]
			it.j++
			return e, true
		}
		it.bi++
		it.j = 0
	}
	return timedCores{}, false
}

// Ledger is the shared capacity ledger. One instance spans a federation
// (every nimbus cloud plus the scheduler see the same accounts); backends
// without a federation (SimBackend, standalone nimbus clouds) own private
// instances with identical semantics.
type Ledger struct {
	// mu guards every account and counter below. It is an instrumented
	// lock (see internal/lock): once Instrument is called, contended
	// acquisitions surface as sky_lock_contentions_total{lock="capacity_ledger"}.
	mu lock.RWMutex

	seq      int
	accounts map[string]*account
	order    []string
	// orderAccts mirrors order as account pointers so the per-cycle bulk
	// reads (FreeTotals) walk a slice instead of hashing every name.
	orderAccts []*account
	// gen counts cloud-set and total-capacity changes plus forced
	// transitions (Evict/Retarget); callers cache capacity views derived
	// from the ledger keyed on it (the scheduler's federation-wide
	// gang-slot cache, checked on every Submit). Atomic so that per-job
	// validity check never touches the lock.
	gen atomic.Uint64

	// Evictions and Retargets count forced transitions, for stats surfaces.
	Evictions int
	Retargets int
	// CloudFailures and CloudRestores count FailCloud/RestoreCloud
	// transitions (idempotent repeats excluded).
	CloudFailures int
	CloudRestores int

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
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addCloud(name, totalCores)
}

// addCloud is AddCloud without the lock.
func (l *Ledger) addCloud(name string, totalCores int) {
	if a, ok := l.accounts[name]; ok {
		if a.total != totalCores {
			a.total = totalCores
			l.jrec(Rec{Op: OpCloud, Cloud: name, Cores: totalCores})
			l.gen.Add(1)
		}
		return
	}
	l.accounts[name] = &account{name: name, total: totalCores, leases: make(map[int]*Lease)}
	l.order = append(l.order, name)
	sort.Strings(l.order)
	l.orderAccts = l.orderAccts[:0]
	for _, n := range l.order {
		l.orderAccts = append(l.orderAccts, l.accounts[n])
	}
	l.jrec(Rec{Op: OpCloud, Cloud: name, Cores: totalCores})
	l.gen.Add(1)
}

// Generation returns a counter bumped whenever the cloud set or any cloud's
// total capacity changes, and on every forced transition (Evict, Retarget)
// that moves claims behind normal acquire/release flow. Derived capacity
// views cached on it (the scheduler's per-cloud totals behind its
// whole-federation fit check) stay valid until it moves. Lock-free.
func (l *Ledger) Generation() uint64 { return l.gen.Load() }

// SetTotal updates a cloud's capacity (backends whose clouds resize).
func (l *Ledger) SetTotal(name string, totalCores int) { l.AddCloud(name, totalCores) }

// Clouds returns the registered cloud names, sorted.
func (l *Ledger) Clouds() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]string(nil), l.order...)
}

// Total returns a cloud's core capacity (0 for unknown clouds).
func (l *Ledger) Total(cloud string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if a := l.accounts[cloud]; a != nil {
		return a.total
	}
	return 0
}

// Committed returns the cores of placed VMs on a cloud.
func (l *Ledger) Committed(cloud string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if a := l.accounts[cloud]; a != nil {
		return a.committed
	}
	return 0
}

// Held returns the cores of active held leases on a cloud.
func (l *Ledger) Held(cloud string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if a := l.accounts[cloud]; a != nil {
		return a.held
	}
	return 0
}

// Reserved returns the cores of active future reservations on a cloud.
func (l *Ledger) Reserved(cloud string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if a := l.accounts[cloud]; a != nil {
		return a.reserved
	}
	return 0
}

// Free returns the cores available right now: total minus committed minus
// held. Future reservations do not reduce Free — they gate policy decisions
// through Probe, not physical admission.
func (l *Ledger) Free(cloud string) int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.free(cloud)
}

// free is Free without the lock.
func (l *Ledger) free(cloud string) int {
	a := l.accounts[cloud]
	if a == nil || a.failed {
		return 0
	}
	return a.total - a.committed - a.held
}

// FreeTotals calls fn(name, free, total) for every registered cloud in name
// order under a single read lock — the bulk form of Free+Total for per-cycle
// snapshots, which would otherwise pay two lock round-trips per cloud.
func (l *Ledger) FreeTotals(fn func(name string, free, total int)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
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
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.headroom(cloud, at)
}

// headroom is Headroom without the lock.
func (l *Ledger) headroom(cloud string, at sim.Time) int {
	a := l.accounts[cloud]
	if a == nil || a.failed {
		return 0
	}
	head := a.total - a.loadAt(at)
	it := a.resvStarts.iterAfter(at)
	for e, ok := it.next(); ok; e, ok = it.next() {
		if h := a.total - a.loadAt(e.at); h < head {
			head = h
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
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, m := range members {
		need := alloc[m] + cores
		if l.free(m) >= need && l.probe(m, need, at) {
			return m
		}
	}
	best, bestHead := "", 0
	for _, c := range spill {
		need := alloc[c] + cores
		if l.free(c) < need {
			continue
		}
		head := l.headroom(c, at) - alloc[c]
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
// start has arrived by t. Answered from the cached aggregates plus two
// O(log n) time-index reads — no lease walk: held cores minus the held
// leases whose estimated end has passed by t, plus the reservations whose
// start has arrived (reservations carry no end — Reserve never sets one).
func (a *account) loadAt(t sim.Time) int {
	return a.committed + a.held - a.heldEnds.coresBy(t) + a.resvStarts.coresBy(t)
}

// Probe reports whether a new indefinite claim of `cores` starting at `at`
// could be admitted without driving the cloud over capacity at any instant
// from `at` onward — exactly Headroom(cloud, at) ≥ cores. Held leases with
// estimated ends hand their cores back at those instants; reservations add
// theirs at their start instants — so an elastic grow probing "now" is
// denied when it would eat cores a backfill reservation needs at its future
// start, even though the cloud has room today.
func (l *Ledger) Probe(cloud string, cores int, at sim.Time) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.probe(cloud, cores, at)
}

// probe is Probe without the lock.
func (l *Ledger) probe(cloud string, cores int, at sim.Time) bool {
	l.m.probes.Inc()
	if l.accounts[cloud] == nil {
		return false
	}
	if cores <= 0 {
		return true
	}
	return l.headroom(cloud, at) >= cores
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
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acquireUntil(cloud, cores, end)
}

// acquireUntil is AcquireUntil without the lock.
func (l *Ledger) acquireUntil(cloud string, cores int, end sim.Time) (*Lease, error) {
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
	if free := l.free(cloud); free < cores {
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
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reserve(cloud, cores, at)
}

// reserve is Reserve without the lock.
func (l *Ledger) reserve(cloud string, cores int, at sim.Time) (*Lease, error) {
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
	a.leases[le.id] = le
	*a.kindCores(k) += cores
	a.index(le, true)
	l.jrec(Rec{Op: OpLease, Cloud: a.name, ID: le.id, Cores: cores, Kind: int(k), At: int64(at), End: int64(end)})
	return le
}

// index adds or removes the lease's time-index entry: held leases with an
// estimated end are keyed by End (the instant their cores hand back),
// reservations by At (the instant their claim starts). Indefinite held
// leases live only in the O(1) held aggregate.
func (a *account) index(le *Lease, add bool) {
	var x *timeIndex
	var at sim.Time
	switch {
	case le.Kind == Reserved:
		x, at = &a.resvStarts, le.At
	case le.End != 0:
		x, at = &a.heldEnds, le.End
	default:
		return
	}
	if add {
		x.add(at, le.id, le.Cores)
	} else {
		x.remove(at, le.id)
	}
}

// Commit retires the lease into the committed aggregate: a held in-flight
// admission whose VMs have been placed, or a reservation whose gang starts
// now. Committing a reservation re-checks the physical invariant (the
// cores move from advisory to held-equivalent); committing a held lease
// cannot fail. Commit on a closed lease is a no-op.
func (le *Lease) Commit() error {
	le.l.mu.Lock()
	defer le.l.mu.Unlock()
	return le.commit()
}

// commit is Commit without the lock.
func (le *Lease) commit() error {
	if le.closed {
		return nil
	}
	a := le.acct
	if le.Kind == Reserved {
		if free := le.l.free(le.Cloud); free < le.Cores {
			return fmt.Errorf("capacity: committing reservation of %d cores on %s with %d free",
				le.Cores, le.Cloud, free)
		}
	}
	le.closed = true
	delete(a.leases, le.id)
	*a.kindCores(le.Kind) -= le.Cores
	a.index(le, false)
	a.committed += le.Cores
	le.l.jrec(Rec{Op: OpCommit, ID: le.id})
	return nil
}

// Release drops the lease's claim. Idempotent: releasing a committed or
// already-released lease does nothing (the committed cores are returned
// through Ledger.Uncommit when their VMs terminate).
func (le *Lease) Release() {
	le.l.mu.Lock()
	defer le.l.mu.Unlock()
	le.release()
}

// release is Release without the lock.
func (le *Lease) release() {
	if le.closed {
		return
	}
	le.closed = true
	a := le.acct
	delete(a.leases, le.id)
	*a.kindCores(le.Kind) -= le.Cores
	a.index(le, false)
	le.l.jrec(Rec{Op: OpRelease, ID: le.id})
}

// Uncommit returns committed cores to the pool (VM termination, shrink,
// revocation, migration away). Clamps at zero rather than going negative so
// double releases cannot mint capacity.
func (l *Ledger) Uncommit(cloud string, cores int) {
	l.mu.Lock()
	defer l.mu.Unlock()
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
	l.mu.Lock()
	defer l.mu.Unlock()
	le, err := l.acquireUntil(cloud, cores, 0)
	if err != nil {
		return err
	}
	return le.commit()
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
	l.mu.Lock()
	defer l.mu.Unlock()
	if victim == nil || victim.closed {
		return nil, nil
	}
	if victim.l != l {
		return nil, fmt.Errorf("capacity: lease belongs to another ledger")
	}
	cloud, cores := victim.Cloud, victim.Cores
	victim.release()
	shield, err := l.reserve(cloud, cores, at)
	if err != nil {
		return nil, err
	}
	l.Evictions++
	l.m.evictions.Inc()
	l.gen.Add(1)
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
	l.mu.Lock()
	defer l.mu.Unlock()
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
	l.gen.Add(1)
	return shield, nil
}

// Retarget atomically moves committed cores between clouds — the migration
// transition for placed VMs. The destination's physical invariant is
// checked before the source account is touched, then the cores move
// committed→committed with no free instant in between, so a migration
// cannot lose its capacity to a concurrent acquire the way a
// release-then-adopt sequence could. Host-level bookkeeping moves through
// the ledger-skipping paths (nimbus ReleaseLedgered/AdoptLedgered).
func (l *Ledger) Retarget(from, to string, cores int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
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
	if free := l.free(to); free < cores {
		return fmt.Errorf("capacity: %s has %d free cores, retarget needs %d", to, free, cores)
	}
	src.committed -= cores
	dst.committed += cores
	l.jrec(Rec{Op: OpMove, Cloud: from, To: to, Cores: cores})
	l.Retargets++
	l.m.retargets.Inc()
	l.gen.Add(1)
	return nil
}

// Retarget atomically moves `cores` of the lease's claim to another cloud,
// returning the lease now holding them there (the remainder, if any, stays
// behind on the source). Held claims re-check the destination's physical
// invariant; reservations move freely (they are advisory until committed).
// Kind, start, and estimated end carry over, so a consolidating gang
// member's hand-back estimate survives the move and future probes stay
// exact. Fails without touching either account when the destination lacks
// room or the lease is closed.
func (le *Lease) Retarget(to string, cores int) (*Lease, error) {
	l := le.l
	l.mu.Lock()
	defer l.mu.Unlock()
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
		if free := l.free(to); free < cores {
			return nil, fmt.Errorf("capacity: %s has %d free cores, retarget needs %d", to, free, cores)
		}
	}
	src := le.acct
	if cores == le.Cores {
		delete(src.leases, le.id)
		*src.kindCores(le.Kind) -= le.Cores
		src.index(le, false)
		le.closed = true
		l.jrec(Rec{Op: OpRelease, ID: le.id})
	} else {
		// Shrink the source lease in place: re-key its time-index entry to
		// the reduced core count.
		src.index(le, false)
		le.Cores -= cores
		*src.kindCores(le.Kind) -= cores
		src.index(le, true)
		l.jrec(Rec{Op: OpShrink, ID: le.id, Cores: cores})
	}
	moved := l.newLease(dst, cores, le.Kind, le.At, le.End)
	l.Retargets++
	l.m.retargets.Inc()
	l.gen.Add(1)
	return moved, nil
}

// FailCloud is the outage transition: the cloud's every active lease (held
// and reserved) closes, its committed cores return to the pool, and the
// account is marked failed — all in one generation-bumped step, so no probe
// or generation-keyed cache can observe a half-dead cloud. While failed, the
// cloud admits nothing: Acquire/Reserve/Retarget-onto refuse, Free and
// Headroom read zero, Probe fails. Total capacity is kept so federation-wide
// "could this ever fit" checks still count the cloud as coming back.
// Idempotent: failing a failed cloud does nothing and returns 0. Returns the
// cores lost (lease + committed), for the caller's outage accounting.
func (l *Ledger) FailCloud(name string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accounts[name]
	if a == nil {
		return 0, fmt.Errorf("capacity: unknown cloud %q", name)
	}
	if a.failed {
		return 0, nil
	}
	lost := 0
	if len(a.leases) > 0 {
		// Close in id order: the journal (and any metrics side effects) must
		// not depend on map iteration order.
		ids := make([]int, 0, len(a.leases))
		for id := range a.leases {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			le := a.leases[id]
			lost += le.Cores
			le.release()
		}
	}
	if a.committed > 0 {
		lost += a.committed
		l.jrec(Rec{Op: OpUncommit, Cloud: name, Cores: a.committed})
		a.committed = 0
	}
	a.failed = true
	l.jrec(Rec{Op: OpFail, Cloud: name})
	l.CloudFailures++
	l.m.cloudFailures.Inc()
	l.gen.Add(1)
	return lost, nil
}

// RestoreCloud clears a cloud's failed mark: its full capacity is free
// again (everything on it was evicted at failure). Idempotent.
func (l *Ledger) RestoreCloud(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.accounts[name]
	if a == nil {
		return fmt.Errorf("capacity: unknown cloud %q", name)
	}
	if !a.failed {
		return nil
	}
	a.failed = false
	l.jrec(Rec{Op: OpRestore, Cloud: name})
	l.CloudRestores++
	l.m.cloudRestores.Inc()
	l.gen.Add(1)
	return nil
}

// Failed reports whether the cloud is in a FailCloud outage.
func (l *Ledger) Failed(name string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	a := l.accounts[name]
	return a != nil && a.failed
}

// String renders one line per cloud for debugging and logs.
func (l *Ledger) String() string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := ""
	for _, name := range l.order {
		a := l.accounts[name]
		out += fmt.Sprintf("%s: total=%d committed=%d held=%d reserved=%d free=%d\n",
			name, a.total, a.committed, a.held, a.reserved, a.total-a.committed-a.held)
	}
	return out
}
