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
		// live ledger leases. Reserve/Release never move the ledger
		// generation or the free vector, so the only observable difference
		// from a release-and-re-reserve round trip is the op count.
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
	eta := j.Started + j.estDuration
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
	eta := j.Started + j.estDuration
	i := s.releaseIdx(eta, j.seq)
	n := i
	for n < len(s.releases) && s.releases[n].at == eta && s.releases[n].seq == j.seq {
		n++
	}
	s.releases = slices.Delete(s.releases, i, n)
}

// addRelease adds a release entry's cores to dst, a vector indexed like
// the view, at its cloud's position.
func (s *Scheduler) addRelease(v *CloudView, dst []int, r coreRelease) {
	if p := v.Pos(s.clouds[r.cloud].name); p >= 0 {
		dst[p] += r.cores
	}
}

// reserve computes the blocked job's earliest feasible start: walk the
// estimated release instants in order and, at each, ask the placement
// policy whether a plan exists with the capacity available by then. The
// first instant that yields a plan becomes the reservation. ok is false
// when even a fully drained federation yields no plan (either capacity
// shrank below the gang, or a single-cloud policy faces a spanning-only
// job).
//
// The walk reads s.releases in place and applies EASY's overdue rule as it
// goes: an estimate at or before now counts from now + 1 s. So the entries
// due before now + 1 s come first, then the overdue prefix together with
// any entry due exactly at now + 1 s, then the rest. Every entry of an
// instant is added before the policy is asked, so the order inside an
// instant reaches no decision.
func (s *Scheduler) reserve(j *Job, v *CloudView) (reservation, bool) {
	av := &s.resvView
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
				s.addRelease(av, av.free, r)
			}
			pending = false
		}
		for ; i < len(rel) && rel[i].at == at; i++ {
			s.addRelease(av, av.free, rel[i])
		}
		// Instants whose accumulated frees provably still cannot host the
		// gang skip the policy walk: the precheck is one pass over the free
		// vector, so a long release list costs O(instants × clouds) until
		// the first genuinely viable instant, not O(instants × Choose).
		if s.cfg.Placement.ProvablyUnplaceable(j, av) {
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
		s.addRelease(v, s.relSumAtResv, r)
	}
}

// backfillOK reports whether starting job b under plan now cannot delay the
// reservation: the plan shares no cloud with it, b finishes (by estimate)
// before the reserved start, or every shared member cloud keeps the
// reserved cores with b's slice taken. Available-at-reservation is the live
// working free plus the cycle's per-cloud release sum at the reservation
// instant (s.relSumAtResv, fixed while the reservation stands).
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
	finish := s.K.Now() + sim.FromSeconds(s.estimateAt(b, plan, v))
	if finish <= resv.at {
		return true
	}
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
