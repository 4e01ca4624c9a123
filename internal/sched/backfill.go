package sched

import (
	"sort"
	"strconv"

	"repro/internal/capacity"
	"repro/internal/sim"
)

// EASY backfilling, gang-aware: when the next entitled job cannot be
// placed, it gets a reservation — the earliest instant at which the
// placement policy can produce a plan for it, given running jobs' estimated
// completions. The reservation is itself a plan (a multi-cloud capacity
// vector, not a single cloud), and later queue entries may start now only
// if they cannot delay that reserved start: either their plan shares no
// cloud with the reservation, they finish (by estimate) before it, or they
// leave every reserved member's cores intact at the reservation time.
//
// The reservation is not a cycle-local artifact: holdReservation registers
// it as future leases in the backend's capacity ledger, where it persists
// between scheduling cycles. Anything probing the ledger for indefinite
// capacity — a deadline-chasing grow, a spot replacement — sees the claim
// and is denied the reserved cores, closing the grow-vs-reservation race.
// Each cycle drops and recomputes it against fresh runtime estimates.

// reservation is the blocked head job's future claim.
type reservation struct {
	job  string
	jref *Job // the job record, cached so backfillOK skips the map lookup
	plan Plan
	at   sim.Time
	// leases are the claim's per-member-cloud entries in the backend's
	// capacity ledger, live until the next cycle recomputes the reservation
	// or the job dispatches. shaded records whether the claim took leases
	// (false once reservation aging fires) — the adoption key that lets an
	// identical recompute inherit the previous cycle's live leases.
	leases []*capacity.Lease
	shaded bool
}

// membersEqual reports whether two plans place identically.
func membersEqual(a, b []Member) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// holdReservation registers the blocked head job's future claim in the
// capacity ledger (one lease per member cloud) and makes it the
// scheduler's current reservation, replacing any previous one. With shade
// false (reservation aging fired) the claim still gates backfill this cycle
// but takes no ledger leases, so elastic growth stops being shaded by a
// start estimate that keeps slipping.
func (s *Scheduler) holdReservation(r *reservation, cpw int, shade bool) {
	if pr := s.prevResv; pr != nil && pr.job == r.job && pr.at == r.at &&
		pr.shaded == shade && (!shade || len(pr.leases) == len(r.plan.Members)) &&
		membersEqual(pr.plan.Members, r.plan.Members) {
		// Identical claim to the one the previous cycle held: adopt its
		// live ledger leases. Reserve/Release never move the ledger
		// generation or the free vector, so the only observable difference
		// from a release-and-re-reserve round trip is the op count.
		r.leases, r.shaded = pr.leases, pr.shaded
		pr.leases = nil
		s.prevResv = nil
		s.resv = r
		s.m.resvHoldReuses.Inc()
		s.clearBackfillMemos()
		return
	}
	s.releasePrevResv()
	s.dropReservation()
	if shade {
		l := s.B.Ledger()
		r.leases, s.leaseSpare = s.leaseSpare[:0], nil
		for _, m := range r.plan.Members {
			le, err := l.Reserve(m.Cloud, m.Workers*cpw, r.at)
			if err != nil {
				continue // unknown cloud: the snapshot and ledger disagree; skip
			}
			r.leases = append(r.leases, le)
		}
	}
	r.shaded = shade
	s.resv = r
	s.clearBackfillMemos()
}

// clearBackfillMemos drops the cached backfill verdict parts on every memo
// entry: they were computed against a reservation this cycle just replaced.
// Under the cross-cycle seal a memo entry outlives the reservation that its
// bf parts were judged against — the head job can change without moving the
// sealed view (a bare Submit moves neither frees nor epochs) — so the parts
// reset whenever a reservation is (re)established.
func (s *Scheduler) clearBackfillMemos() {
	for i := range s.memos {
		s.memos[i].bfValid = false
	}
}

// trackSlips advances the reservation-aging state for the freshly
// (re)computed head reservation and reports whether aging fired: the same
// job's reserved start moved later Config.maxSlips consecutive times. A
// recompute that holds or improves the start — including a cache hit, which
// proves the inputs were unchanged — breaks the consecutive chain.
func (s *Scheduler) trackSlips(r *reservation, hit bool) bool {
	max := s.cfg.maxSlips()
	if max <= 0 {
		return false
	}
	if r.job != s.agingJob {
		s.agingJob, s.agingAt, s.agingSlips = r.job, r.at, 0
		return false
	}
	if hit || r.at <= s.agingAt {
		s.agingAt, s.agingSlips = r.at, 0
		return false
	}
	s.agingAt = r.at
	s.agingSlips++
	if s.agingSlips < max {
		return false
	}
	s.agingSlips = 0 // aging fired: start a fresh observation window
	s.m.reservationAgings.Inc()
	return true
}

// dropReservation releases the current reservation's ledger leases.
func (s *Scheduler) dropReservation() {
	if s.resv == nil {
		return
	}
	for _, le := range s.resv.leases {
		le.Release()
	}
	s.reclaimLeaseBuf(s.resv.leases)
	s.resv = nil
}

// reclaimLeaseBuf retires a dead reservation's lease slice so the next
// holdReservation reuses its backing array. The slice's leases must already
// be released: the entries are overwritten, never re-read.
func (s *Scheduler) reclaimLeaseBuf(buf []*capacity.Lease) {
	if cap(buf) > cap(s.leaseSpare) {
		s.leaseSpare = buf[:0]
	}
}

// resvCache is the blocked head's reservation recompute cache. reserve()
// is a pure function of the job, the cycle's working free vector, the
// release snapshot, and the placement policy's inputs — so a cycle in
// which none of those moved can reuse the previous answer instead of
// walking every release instant through the policy again. Validity is
// keyed on the job ID, the release-list epoch (bumped by every insert,
// remove, and pattern event), the ledger generation, and a byte-compare of
// the free vector; it never engages while any release entry is overdue
// (the overdue remap folds the current time into the snapshot) or for
// policies that draw randomness (see cacheablePolicy).
type resvCache struct {
	ok   bool
	job  string
	ver  uint64
	gen  uint64
	free []int
	sums []int // relSumAtResv at the reservation instant
	plan Plan
	at   sim.Time
}

// cacheablePolicy marks placement policies whose Choose is a pure function
// of (job, view) — no RNG draws, no mutable internal state. Only these let
// the reservation recompute cache engage (skipping a RandomPlacement walk
// would desynchronize the kernel RNG stream).
type cacheablePolicy interface{ PureChoose() bool }

// cachedReserve returns the head job's reservation, reusing the cached one
// when provably unchanged and otherwise recomputing it from a fresh release
// snapshot (taken lazily into *releases). On a hit the per-cloud release
// sums at the reservation instant are restored from the cache too, so the
// backfill checks downstream see exactly the state a recompute would have
// produced.
func (s *Scheduler) cachedReserve(j *Job, v *CloudView, releases *[]coreRelease, have *bool) (reservation, bool, bool) {
	if s.resvCacheValid(j, v) {
		s.m.resvCacheHits.Inc()
		s.relSumAtResv = append(s.relSumAtResv[:0], s.rcache.sums...)
		return reservation{job: j.ID, jref: j, plan: s.rcache.plan, at: s.rcache.at}, true, true
	}
	// (Re)take the release snapshot lazily: a dispatch since the last
	// snapshot (possible when an earlier reservation attempt failed) adds a
	// release the next reserve() walk must see — exactly the old
	// rebuild-per-blocked-job behavior, minus the rebuilds whose inputs
	// could not have changed.
	if !*have || s.relSnapDirty {
		*releases = s.snapshotReleases()
		*have, s.relSnapDirty = true, false
	}
	r, ok := s.reserve(j, v, *releases)
	return r, ok, false
}

// resvCacheValid reports whether the cached reservation may stand in for a
// recompute this cycle.
func (s *Scheduler) resvCacheValid(j *Job, v *CloudView) bool {
	rc := &s.rcache
	if !rc.ok || rc.job != j.ID || rc.ver != s.resvEpoch || rc.gen != s.B.Ledger().Generation() {
		return false
	}
	if cp, ok := s.cfg.Placement.(cacheablePolicy); !ok || !cp.PureChoose() {
		return false
	}
	if len(s.releases) > 0 && s.releases[0].at <= s.K.Now() {
		return false // overdue entries remap to now+1s: time-dependent
	}
	if len(rc.free) != len(v.free) {
		return false
	}
	for i, f := range v.free {
		if rc.free[i] != f {
			return false
		}
	}
	return true
}

// cacheReservation records a freshly computed reservation (and the cycle's
// release sums at its instant) for reuse by unchanged cycles.
func (s *Scheduler) cacheReservation(j *Job, v *CloudView, r *reservation) {
	rc := &s.rcache
	rc.ok = true
	rc.job = j.ID
	rc.ver = s.resvEpoch
	rc.gen = s.B.Ledger().Generation()
	rc.free = append(rc.free[:0], v.free...)
	rc.sums = append(rc.sums[:0], s.relSumAtResv...)
	rc.plan = r.plan
	rc.at = r.at
}

// coreRelease is one running job's estimated hand-back of cores on one
// member cloud (a spanning job contributes one release per member).
type coreRelease struct {
	at    sim.Time
	cores int
	// cloudRank indexes the scheduler's sorted cloud-name table
	// (s.relClouds); jobKey packs the job ID's digits so uint64 order
	// equals ID-string order (see relJobKey). Both stand in for the
	// strings the entry used to carry: a pointer-free entry makes every
	// release-list insert, remove, and snapshot copy a plain memmove with
	// no write barriers and leaves the GC nothing to scan in the list —
	// the largest single barrier source on the steady-state hot path.
	cloudRank int32
	jobKey    uint64
}

// relJobKeyMax bounds the job sequence numbers relJobKey can order: eight
// decimal digits fill the uint64 left-aligned.
const relJobKeyMax = 100_000_000

// relJobKey maps a job sequence number to a key whose uint64 order equals
// the lexicographic order of the job's ID string. IDs are "J" + decimal
// digits, so comparing IDs is comparing digit strings; left-aligning the
// digit bytes in a big-endian word reproduces that order exactly (padding
// bytes are 0x00 < '0', so a prefix sorts before its extensions, and equal
// lengths compare digit-by-digit).
func relJobKey(seq int) uint64 {
	if seq >= relJobKeyMax {
		// 100M jobs in one scheduler instance is far outside the design
		// envelope (the archive alone would be tens of GB); fail loud
		// rather than silently misorder the release list.
		panic("sched: job sequence exceeds release-key capacity")
	}
	var buf [8]byte
	n := len(strconv.AppendInt(buf[:0], int64(seq), 10))
	key := uint64(0)
	for i := 0; i < n; i++ {
		key |= uint64(buf[i]) << (8 * (7 - i))
	}
	return key
}

// releaseLess is the canonical release order: time, then job ID, then cloud
// for determinism — both the maintained list and the per-cycle snapshot use
// it. jobKey and cloudRank compare exactly like the strings they encode.
func releaseLess(a, b coreRelease) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.jobKey != b.jobKey {
		return a.jobKey < b.jobKey
	}
	return a.cloudRank < b.cloudRank
}

// cloudRankFor returns the cloud's position in the sorted rank table,
// inserting it on first sight. An insert shifts the ranks of every name
// after it, so all live release entries — the maintained list and both
// snapshot buffers (cycle-local snapshots alias them) — are remapped in
// the same step.
func (s *Scheduler) cloudRankFor(name string) int32 {
	i := sort.SearchStrings(s.relClouds, name)
	if i < len(s.relClouds) && s.relClouds[i] == name {
		return int32(i)
	}
	s.relClouds = append(s.relClouds, "")
	copy(s.relClouds[i+1:], s.relClouds[i:])
	s.relClouds[i] = name
	for _, rel := range [][]coreRelease{s.releases, s.relScratch, s.overScratch} {
		for k := range rel {
			if rel[k].cloudRank >= int32(i) {
				rel[k].cloudRank++
			}
		}
	}
	return int32(i)
}

// relCloudName resolves a release entry's cloud name from its rank.
func (s *Scheduler) relCloudName(rank int32) string { return s.relClouds[rank] }

// insertReleases adds one entry per plan member at the job's estimated
// completion, keeping s.releases sorted — the maintained counterpart of the
// former rebuild-and-sort-per-blocked-cycle pendingReleases scan over every
// job ever submitted. External jobs contribute nothing (their capacity is
// caller-owned and never returns to the pool).
func (s *Scheduler) insertReleases(j *Job) {
	if j.Spec.External() {
		return
	}
	eta := j.Started + j.estDuration
	cpw := j.coresPerWorker()
	key := relJobKey(j.seq)
	for _, m := range j.Plan.Members {
		e := coreRelease{at: eta, cores: m.Workers * cpw, cloudRank: s.cloudRankFor(m.Cloud), jobKey: key}
		i := sort.Search(len(s.releases), func(k int) bool { return releaseLess(e, s.releases[k]) })
		s.releases = append(s.releases, coreRelease{})
		copy(s.releases[i+1:], s.releases[i:])
		s.releases[i] = e
	}
	s.relSnapDirty = true
	s.resvEpoch++
}

// removeReleases drops the job's entries (contiguous: they share eta and
// job ID) when it completes.
func (s *Scheduler) removeReleases(j *Job) {
	eta := j.Started + j.estDuration
	key := relJobKey(j.seq)
	probe := coreRelease{at: eta, jobKey: key, cloudRank: -1}
	i := sort.Search(len(s.releases), func(k int) bool { return !releaseLess(s.releases[k], probe) })
	n := i
	for n < len(s.releases) && s.releases[n].at == eta && s.releases[n].jobKey == key {
		n++
	}
	if n > i {
		s.releases = append(s.releases[:i], s.releases[n:]...)
		s.resvEpoch++
	}
}

// snapshotReleases returns this cycle's release view with the standard EASY
// overdue remap: entries at or before now are assumed to release one second
// from now. The maintained list is already sorted; only the overdue prefix
// needs reordering — it is remapped to now+1s, re-sorted by (job, cloud),
// and merged with any entries genuinely estimated at that instant,
// reproducing exactly the order the full rebuild used to produce. The
// result lives in scheduler scratch, valid for the current cycle.
func (s *Scheduler) snapshotReleases() []coreRelease {
	now := s.K.Now()
	rel := s.releases
	k := sort.Search(len(rel), func(i int) bool { return rel[i].at > now })
	if k == 0 {
		// Nothing overdue: the maintained order is the answer — but copy it
		// out, because backfill dispatches later this cycle insert into
		// s.releases in place while the snapshot may still be read (a later
		// blocked job after a failed reservation).
		s.relScratch = append(s.relScratch[:0], rel...)
		return s.relScratch
	}
	remap := now + sim.Second
	over := append(s.overScratch[:0], rel[:k]...)
	s.overScratch = over
	for i := range over {
		over[i].at = remap
	}
	sort.Slice(over, func(i, j int) bool { return releaseLess(over[i], over[j]) })
	out := s.relScratch[:0]
	// Entries strictly between now and the remap instant keep their spot…
	rest := rel[k:]
	for len(rest) > 0 && rest[0].at < remap {
		out = append(out, rest[0])
		rest = rest[1:]
	}
	// …then the remapped overdue entries merge with genuine remap-instant
	// entries, then the tail follows unchanged.
	for len(over) > 0 && len(rest) > 0 && rest[0].at == remap {
		if releaseLess(rest[0], over[0]) {
			out = append(out, rest[0])
			rest = rest[1:]
		} else {
			out = append(out, over[0])
			over = over[1:]
		}
	}
	out = append(out, over...)
	out = append(out, rest...)
	s.relScratch = out
	return out
}

// reserve computes the blocked job's earliest feasible start: walk the
// estimated release instants in order and, at each, ask the placement
// policy whether a plan exists with the capacity available by then. The
// first instant that yields a plan becomes the reservation. ok is false
// when even a fully drained federation yields no plan (either capacity
// shrank below the gang, or a single-cloud policy faces a spanning-only
// job).
func (s *Scheduler) reserve(j *Job, v *CloudView, releases []coreRelease) (reservation, bool) {
	av := &s.resvView
	av.shareIndex(v)
	i := 0
	for i < len(releases) {
		at := releases[i].at
		for i < len(releases) && releases[i].at == at {
			if p := av.Pos(s.relCloudName(releases[i].cloudRank)); p >= 0 {
				av.free[p] += releases[i].cores
			}
			i++
		}
		// Instants whose accumulated frees provably still cannot host the
		// gang skip the policy walk: the precheck is one pass over the free
		// vector, so a long release list costs O(instants × clouds) until
		// the first genuinely viable instant, not O(instants × Choose).
		if s.provablyEmpty(j, av) {
			continue
		}
		if plan := s.cfg.Placement.Choose(s, j, av); !plan.Empty() {
			return reservation{job: j.ID, jref: j, plan: plan, at: at}, true
		}
	}
	return reservation{}, false
}

// sumReleasesAt fills the per-cloud release totals at the reservation
// instant (s.relSumAtResv, indexed like the view) once per cycle, so every
// backfill check reads them O(members) instead of rescanning the release
// list per candidate.
func (s *Scheduler) sumReleasesAt(v *CloudView, releases []coreRelease, at sim.Time) {
	s.relSumAtResv = s.relSumAtResv[:0]
	for range v.Clouds {
		s.relSumAtResv = append(s.relSumAtResv, 0)
	}
	for _, r := range releases {
		if r.at > at {
			break // sorted by time: nothing later counts
		}
		if p := v.Pos(s.relCloudName(r.cloudRank)); p >= 0 {
			s.relSumAtResv[p] += r.cores
		}
	}
}

// backfillOK reports whether starting job b under plan now cannot delay the
// reservation.
func (s *Scheduler) backfillOK(b *Job, plan Plan, resv *reservation, v *CloudView) bool {
	// Memo fast path: the cycle scan hands over the plan choosePlan just
	// returned, so when a memo entry still matches b's shape the plan IS the
	// memoized one, and the share/capacity verdicts — fixed while the memo
	// instance lives — are computed once per shape instead of per candidate.
	if s.memoable && b.Spec.InputFractions == nil {
		if m := s.memoLookup(b, s.boostedTenant(b)); m != nil {
			return s.backfillOKMemo(b, m, resv, v)
		}
	}
	return s.backfillFits(b, plan, resv, v)
}

// backfillFits is backfillOK's arithmetic without the memo machinery, used
// when no memo entry holds the plan (a policy without PureChoose, or a job
// with per-block InputFractions): it judges the job, the plan, the
// reservation, the working view, and the cycle's per-cloud release sums at
// the reservation instant (s.relSumAtResv, fixed while the reservation
// stands). The verdict equals backfillOKMemo's — !shared ∨ finish≤resv.at ∨
// capOK — by construction.
func (s *Scheduler) backfillFits(b *Job, plan Plan, resv *reservation, v *CloudView) bool {
	shared := false
	for _, m := range plan.Members {
		if resv.plan.WorkersOn(m.Cloud) > 0 {
			shared = true
			break
		}
	}
	if !shared {
		return true
	}
	finish := s.K.Now() + sim.FromSeconds(s.estimateAt(b, plan, v))
	if finish <= resv.at {
		return true
	}
	// Still running at the reservation: every shared member cloud must
	// retain enough cores with b's slice subtracted. Available-at-resv is
	// the live working free plus the precomputed release sum.
	bcpw := b.coresPerWorker()
	rcpw := 1
	if resv.jref != nil {
		rcpw = resv.jref.coresPerWorker()
	}
	for _, m := range plan.Members {
		need := resv.plan.WorkersOn(m.Cloud) * rcpw
		if need == 0 {
			continue
		}
		p := v.Pos(m.Cloud)
		if p < 0 {
			return false
		}
		if v.free[p]+s.relSumAtResv[p]-m.Workers*bcpw < need {
			return false
		}
	}
	return true
}

// backfillOKMemo is backfillOK against the memoized plan: the shared-cloud
// and capacity verdicts depend only on the plan shape, the reservation
// (fixed per cycle), and the working free vector (fixed between dispatches,
// the memo's own validity window), so they are cached on the memo; only the
// per-job finish check recomputes, from the cached estimate parts. The
// boolean result is exactly backfillOK's: !shared ∨ finish≤resv.at ∨ capOK.
func (s *Scheduler) backfillOKMemo(b *Job, m *planMemo, resv *reservation, v *CloudView) bool {
	if !m.bfValid {
		m.bfShared, m.bfCapOK = false, false
		for _, mm := range m.members {
			if resv.plan.WorkersOn(mm.Cloud) > 0 {
				m.bfShared = true
				break
			}
		}
		if m.bfShared {
			rcpw := 1
			if resv.jref != nil {
				rcpw = resv.jref.coresPerWorker()
			}
			m.bfCapOK = true
			for _, mm := range m.members {
				need := resv.plan.WorkersOn(mm.Cloud) * rcpw
				if need == 0 {
					continue
				}
				p := v.Pos(mm.Cloud)
				if p < 0 || v.free[p]+s.relSumAtResv[p]-mm.Workers*m.cpw < need {
					m.bfCapOK = false
					break
				}
			}
		}
		m.bfValid = true
	}
	if !m.bfShared || m.bfCapOK {
		return true
	}
	finish := s.K.Now() + sim.FromSeconds(s.estimateAtMemo(b, m, v))
	return finish <= resv.at
}
