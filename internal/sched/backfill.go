package sched

import (
	"slices"
	"sort"

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
// leave every reserved member's cores intact at the reservation time. Most
// tries that fail this gate are refused before placement, from the width
// and estimate the job's queue entry carries (EASY's extra nodes and
// shadow time; see backfillDoomed).
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

// holdReservation registers the blocked head job's future claim in the
// capacity ledger (one lease per member cloud) and makes it the
// scheduler's current reservation, replacing any previous one. With shade
// false (reservation aging fired) the claim still gates backfill this cycle
// but takes no ledger leases, so elastic growth stops being shaded by a
// start estimate that keeps slipping.
func (s *Scheduler) holdReservation(r *reservation, cpw int, shade bool) {
	if pr := s.prevResv; pr != nil && pr.job == r.job && pr.at == r.at &&
		pr.shaded == shade && (!shade || len(pr.leases) == len(r.plan.Members)) &&
		slices.Equal(pr.plan.Members, r.plan.Members) {
		// Identical claim to the one the previous cycle held: adopt its
		// live ledger leases. Reserve/Release never move a cloud's total or
		// free cores, so the only observable difference from a
		// release-and-re-reserve round trip is the op count.
		r.leases, r.shaded = pr.leases, pr.shaded
		pr.leases = nil
		s.prevResv = nil
		s.resv = r
		s.m.resvHoldReuses.Inc()
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
}

// trackSlips advances the reservation-aging state for the freshly
// (re)computed head reservation and reports whether aging fired: the same
// job's reserved start moved later Config.maxSlips consecutive times. A
// recompute that holds or improves the start breaks the consecutive chain.
func (s *Scheduler) trackSlips(r *reservation) bool {
	max := s.cfg.maxSlips()
	if max <= 0 {
		return false
	}
	if r.job != s.agingJob {
		s.agingJob, s.agingAt, s.agingSlips = r.job, r.at, 0
		return false
	}
	if r.at <= s.agingAt {
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

// coreRelease is one running job's estimated hand-back of cores on one
// member cloud (a spanning job contributes one release per member). It is
// pointer-free — cloud is a row of the scheduler's cloud table, seq the
// job's sequence number — so release-list inserts and removals are plain
// memmoves with no write barriers, and the GC has nothing to scan in the
// list.
type coreRelease struct {
	at    sim.Time
	cores int
	cloud int32
	seq   int
}

// releaseIdx returns the position of the first release-list entry at or
// after (at, seq), the list's order. A job's entries share both keys, so
// they sit together, in plan order.
func (s *Scheduler) releaseIdx(at sim.Time, seq int) int {
	return sort.Search(len(s.releases), func(k int) bool {
		r := &s.releases[k]
		return r.at > at || r.at == at && r.seq >= seq
	})
}

// insertReleases adds one entry per plan member at the job's estimated
// completion, keeping s.releases sorted. An external job's plan is empty,
// so it adds none: its capacity is caller-owned and never returns to the
// pool.
func (s *Scheduler) insertReleases(j *Job) {
	eta := j.Started + j.estDuration()
	cpw := j.coresPerWorker()
	i := s.releaseIdx(eta, j.seq)
	for _, m := range j.Plan.Members {
		s.releases = slices.Insert(s.releases, i, coreRelease{at: eta, cores: m.Workers * cpw,
			cloud: s.cloudIdx(m.Cloud, -1), seq: j.seq})
		i++
	}
}

// removeReleases drops the job's entries when it completes or requeues.
func (s *Scheduler) removeReleases(j *Job) {
	eta := j.Started + j.estDuration()
	i := s.releaseIdx(eta, j.seq)
	n := i
	for n < len(s.releases) && s.releases[n].at == eta && s.releases[n].seq == j.seq {
		n++
	}
	s.releases = slices.Delete(s.releases, i, n)
}

// addRelease adds a release entry's cores to dst, a vector indexed like
// the last refreshed view (reserve's what-if copy shares its index), at
// the position refreshView recorded for its cloud's row.
func (s *Scheduler) addRelease(dst []int, r coreRelease) {
	if p := s.clouds[r.cloud].pos; p >= 0 {
		dst[p] += r.cores
	}
}

// reserve computes the blocked job's earliest feasible start: walk the
// estimated release instants in order and, at each, ask whatIfPlan whether
// a plan exists with the capacity available by then. The first instant that
// yields a plan becomes the reservation. ok is false when even a fully
// drained federation yields no plan (either capacity shrank below the gang,
// or a single-cloud policy faces a spanning-only job).
//
// The walk reads s.releases in place and applies EASY's overdue rule as it
// goes: an estimate at or before now counts from now + 1 s. So the entries
// due before now + 1 s come first, then the overdue prefix together with
// any entry due exactly at now + 1 s, then the rest. Every entry of an
// instant is added before the policy is asked, so the order inside an
// instant reaches no decision.
func (s *Scheduler) reserve(j *Job, v *CloudView) (reservation, bool) {
	av := &s.whatIf
	av.shareIndex(v)
	rel := s.releases
	now := s.K.Now()
	overdueAt := now + sim.Second
	overdue := sort.Search(len(rel), func(i int) bool { return rel[i].at > now })
	pending := overdue > 0 // the overdue prefix, not yet added
	for i := overdue; i < len(rel) || pending; {
		at := overdueAt
		if i < len(rel) && (!pending || rel[i].at < overdueAt) {
			at = rel[i].at
		} else {
			for _, r := range rel[:overdue] {
				s.addRelease(av.free, r)
			}
			pending = false
		}
		for ; i < len(rel) && rel[i].at == at; i++ {
			s.addRelease(av.free, rel[i])
		}
		// whatIfPlan's slot test is one pass over the free vector, so a long
		// release list costs O(instants × clouds) until the first instant
		// whose frees cover the gang, not O(instants × Choose).
		if plan := s.whatIfPlan(j, av); !plan.Empty() {
			return reservation{job: j.ID, jref: j, plan: plan, at: at}, true
		}
	}
	return reservation{}, false
}

// sumReleasesAt fills the per-cloud release totals at the reservation
// instant (s.relSumAtResv, indexed like the view) once per cycle, so every
// backfill check reads them O(members) instead of rescanning the release
// list per candidate. Overdue entries count from now + 1 s, as in reserve.
func (s *Scheduler) sumReleasesAt(v *CloudView, at sim.Time) {
	s.relSumAtResv = s.relSumAtResv[:0]
	for range v.Clouds {
		s.relSumAtResv = append(s.relSumAtResv, 0)
	}
	now := s.K.Now()
	for _, r := range s.releases {
		if r.at > at {
			break // sorted by time: nothing later counts
		}
		if r.at <= now && at < now+sim.Second {
			continue // overdue: not released before now + 1 s
		}
		s.addRelease(s.relSumAtResv, r)
	}
}

// backfillOK reports whether starting job b under plan now cannot delay the
// reservation: the plan shares no cloud with it, b finishes (by estimate)
// before the reserved start, or every shared member cloud keeps the
// reserved cores with b's slice taken. A shared member's room is its spare
// cores in the fit table (live working free plus the cycle's release sum at
// the reservation instant, minus the reserved cores), the same numbers
// backfillDoomed's bound reads, so the gate and the bound cannot drift. resv
// is the held reservation the table was built for.
func (s *Scheduler) backfillOK(b *Job, plan Plan, resv *reservation, v *CloudView) bool {
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
	finish := s.K.Now() + sim.FromSeconds(planEstimateSeconds(s.B, b, plan, v))
	if finish <= resv.at {
		return true
	}
	spare := s.spareCores(v)
	bcpw := b.coresPerWorker()
	for _, m := range plan.Members {
		if resv.plan.WorkersOn(m.Cloud) == 0 {
			continue
		}
		if p := v.Pos(m.Cloud); p < 0 || spare[p] < m.Workers*bcpw {
			return false
		}
	}
	return true
}

// fitTable holds what the cycle's scan asks of its frozen working free
// vector, so a blocked cycle sums the vector once per worker size instead
// of once per visited job. invalidateMemos drops it with the plan memos,
// whenever the vector moves; holdFit refills its reservation part when the
// head's reservation is held.
type fitTable struct {
	// rows holds one entry per worker size asked about since the vector
	// last moved.
	rows []fitRow
	// reserved is the held reservation's cores per view position (0 on the
	// clouds it does not use), and speedMax the fastest view cloud's speed,
	// a cloud with Speed ≤ 0 counting as 1 as planEstimateSeconds counts
	// it. Both are fixed while the reservation stands.
	reserved []int
	speedMax float64
	// spare is, per view position, free + relSumAtResv − reserved: the
	// cores a reserved cloud has left at the reserved start once the
	// reservation takes its share. spareOK says it matches the current
	// working vector.
	spare   []int
	spareOK bool
}

// fitRow is the fit table's answer for one worker size.
type fitRow struct {
	cpw int
	// slots is slotSum(free, cpw): no plan that fits the view places more
	// cpw-core workers.
	slots int
	// extra is EASY's extra nodes behind the held reservation (Mu'alem and
	// Feitelson, IEEE TPDS 12(6), 2001): Σ⌊free/cpw⌋ over the clouds the
	// reservation does not use, plus min(⌊free/cpw⌋, ⌊max(0, spare)/cpw⌋)
	// on each reserved cloud. A plan backfillOK accepts without finishing
	// by the reserved start places at most extra workers. Before a
	// reservation is held it equals slots.
	extra int
}

// dropFit forgets every row and the spare vector: the working vector moved.
func (s *Scheduler) dropFit() {
	s.fit.rows = s.fit.rows[:0]
	s.fit.spareOK = false
}

// holdFit fills the fit table's reservation part for the just-held
// reservation, after sumReleasesAt: the reserved cores per view position
// and the speed ceiling. It drops the rows built without them.
func (s *Scheduler) holdFit(v *CloudView) {
	ft := &s.fit
	ft.reserved = append(ft.reserved[:0], make([]int, len(v.Clouds))...)
	rcpw := 1
	if s.resv.jref != nil {
		rcpw = s.resv.jref.coresPerWorker()
	}
	for _, m := range s.resv.plan.Members {
		if p := v.Pos(m.Cloud); p >= 0 {
			ft.reserved[p] = m.Workers * rcpw
		}
	}
	ft.speedMax = 0
	for _, c := range v.Clouds {
		sp := c.Speed
		if sp <= 0 {
			sp = 1
		}
		ft.speedMax = max(ft.speedMax, sp)
	}
	s.dropFit()
}

// spareCores returns the fit table's spare vector, rebuilding it on the
// first ask since the working vector last moved.
func (s *Scheduler) spareCores(v *CloudView) []int {
	ft := &s.fit
	if !ft.spareOK {
		ft.spare = slices.Grow(ft.spare[:0], len(v.free))
		for p, f := range v.free {
			ft.spare = append(ft.spare, f+s.relSumAtResv[p]-ft.reserved[p])
		}
		ft.spareOK = true
	}
	return ft.spare
}

// fitRow returns the fit table's row for worker size cpw, summing the
// working free vector on the first ask since it last moved.
func (s *Scheduler) fitRow(v *CloudView, cpw int) fitRow {
	for _, r := range s.fit.rows {
		if r.cpw == cpw {
			return r
		}
	}
	r := fitRow{cpw: cpw, slots: slotSum(v.free, cpw)}
	r.extra = r.slots
	if s.resv != nil {
		spare := s.spareCores(v)
		r.extra = 0
		for p, f := range v.free {
			n := max(f, 0) / cpw
			if s.fit.reserved[p] > 0 {
				n = min(n, max(spare[p], 0)/cpw)
			}
			r.extra += n
		}
	}
	s.fit.rows = append(s.fit.rows, r)
	return r
}

// backfillDoomed reports whether backfillOK would refuse every plan that
// fits the view for a job of w workers and estimate est, behind the held
// reservation, so the cycle can step over the job without placing it. It
// runs on the queue entry, whose w and est are the job's workers() and
// estimate(). A plan backfillOK accepts either avoids every reserved cloud
// or keeps each shared member within its spare cores, and so places at
// most r.extra workers, or finishes by the reserved start. No plan for the
// job finishes by then once est at speedMax ends past it:
// planEstimateSeconds divides estimate() by a member speed of at most
// speedMax and adds only non-negative input and shuffle terms, and float
// division, float addition and FromSeconds are monotone (within sim.Time's
// range). Like the slot test, this holds for plans that fit the view.
func (s *Scheduler) backfillDoomed(w int, est float64, r fitRow) bool {
	return w > r.extra && s.K.Now()+sim.FromSeconds(est/s.fit.speedMax) > s.resv.at
}
