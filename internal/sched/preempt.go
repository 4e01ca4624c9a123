package sched

import (
	"cmp"
	"slices"

	"repro/internal/capacity"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Spot-priced preemption: placement decisions become revocable. When the
// blocked head job's reservation has aged out (its reserved start slipped
// Config.maxSlips consecutive recomputes — the signature of backfilled jobs
// overrunning the estimates that let them slide past the head), the
// scheduler evicts the cheapest set of backfilled jobs whose cores let the
// head start now, instead of waiting for releases that keep not happening.
//
// Eviction price is remaining work × tenant share deficit: a victim with
// most of its run still ahead wastes little completed work, and a victim
// whose tenant is over its entitled share owes the capacity anyway. Victims
// requeue with their queue position (submission order within the tenant
// queue) and progress credit (the executed fraction discounts their next
// estimate and charge) preserved, and a per-job preemption cap keeps
// repeated eviction from starving anyone.
//
// The capacity side is a first-class ledger transition, not a release +
// acquire race: each victim lease converts to a beneficiary reservation
// (capacity.Ledger.Evict) in one step, so nothing can probe the freed cores
// away between the eviction and the head's dispatch.

// tearable reports whether a running job's workers can be torn down right
// now, by eviction or by an outage requeue: it holds a live backend handle
// (an external job, on capacity the caller owns, never does), is not
// mid-relocation (tearing down a half-migrated gang would split its
// accounting across two clouds), and its backend can free the cores
// synchronously.
func tearable(j *Job) bool {
	return j.handle != nil && !j.relocating && j.handle.Preemptible()
}

// progressCredit is the fraction of the job's tasks the handle reports
// done: the progress credit a torn-down job requeues with.
func progressCredit(h Handle) float64 {
	md, mt, rd, rt := h.Progress()
	if mt+rt <= 0 {
		return 0
	}
	return float64(md+rd) / float64(mt+rt)
}

// preemptible reports whether a running job is an eviction candidate: only
// backfilled jobs (they slid past the blocked head; evicting an in-order
// dispatch would break fair ordering), under the per-job preemption cap,
// that can be torn down right now.
func preemptible(j *Job) bool {
	return j.State == Running && j.Backfilled && j.Preemptions < maxPreemptions && tearable(j)
}

// evictPrice prices evicting j now: estimated remaining core-seconds scaled
// by the victim tenant's share deficit. deficit = entitled − delivered, so
// an underserved tenant's jobs are expensive (they are owed capacity) and
// an overserved tenant's cheap. The factor is floored so price stays
// ordered by remaining work even at extreme surpluses. It reads the shares
// the last computeShares call left on the tenant.
func evictPrice(j *Job, now sim.Time) float64 {
	remaining := (j.Started + j.estDuration() - now).Seconds()
	if remaining < 0 {
		remaining = 0
	}
	work := remaining * float64(j.coresNow)
	factor := 1 + (j.tref.entitled - j.tref.share)
	if factor < 0.1 {
		factor = 0.1
	}
	return work * factor
}

// evictCandidate is one eviction candidate with its price.
type evictCandidate struct {
	job   *Job
	price float64
}

// chooseVictims picks the cheapest set of backfilled jobs whose freed cores
// give the head job a plan right now: candidates are sorted by eviction
// price and added to a what-if view (s.whatIf) one at a time until
// whatIfPlan produces a plan, which it returns with the set. nil when even
// evicting every candidate leaves the head unplaceable (the eviction would
// be pure waste, so none happens).
func (s *Scheduler) chooseVictims(head *Job, v *CloudView) ([]evictCandidate, Plan) {
	cand := s.evictCand[:0]
	for _, j := range s.running {
		if j != head && preemptible(j) {
			cand = append(cand, evictCandidate{job: j})
		}
	}
	s.evictCand = cand
	if len(cand) == 0 {
		return nil, Plan{}
	}
	now := s.K.Now()
	s.computeShares(now)
	for i := range cand {
		cand[i].price = evictPrice(cand[i].job, now)
	}
	slices.SortFunc(cand, func(a, b evictCandidate) int {
		if c := cmp.Compare(a.price, b.price); c != 0 {
			return c
		}
		return cmp.Compare(a.job.seq, b.job.seq) // determinism
	})
	av := &s.whatIf
	av.shareIndex(v)
	for n, c := range cand {
		// Only the victim's base plan is credited to the what-if view: the
		// scheduler does not know which clouds host its elastic extras, and
		// under-crediting is the safe direction — at worst one more victim
		// than strictly necessary is evicted, never a head that cannot
		// actually start.
		cpw := c.job.coresPerWorker()
		for _, m := range c.job.Plan.Members {
			if p := av.Pos(m.Cloud); p >= 0 {
				av.free[p] += m.Workers * cpw
			}
		}
		if plan := s.whatIfPlan(head, av); !plan.Empty() {
			return cand[:n+1], plan
		}
	}
	return nil, Plan{}
}

// preemptOutcome reports what the eviction pass did.
type preemptOutcome int

const (
	// preemptNone: no viable victim set — nothing was touched.
	preemptNone preemptOutcome = iota
	// preemptDispatched: victims evicted, head dispatched on their cores.
	preemptDispatched
	// preemptEvictedOnly: victims were evicted and requeued but the head
	// still found no plan (a backend freed fewer cores than the victims'
	// recorded plans promised — e.g. unreplaced spot revocations). The
	// caller must not reuse a reservation computed before the evictions:
	// its release walk includes the victims' phantom entries.
	preemptEvictedOnly
)

// preemptFor runs the eviction pass for the blocked head job at the front
// of tenant t's queue. On preemptDispatched the victims are torn down and
// requeued and the head runs on their cores; the caller's cycle continues
// with a refreshed view. preemptNone leaves everything as it was (no
// victim is evicted unless the head provably starts). The head's plan is
// the one chooseVictims found whenever Choose would return it again (see
// below), so a preemption usually places the head once, not twice.
func (s *Scheduler) preemptFor(t *Tenant, head *Job, v *CloudView) preemptOutcome {
	victims, plan := s.chooseVictims(head, v)
	if victims == nil {
		return preemptNone
	}
	now := s.K.Now()
	var shields []*capacity.Lease
	for _, c := range victims {
		shields = append(shields, s.evict(c.job, now, c.price, "preempt")...)
	}
	// Backend teardown freed the cores synchronously (admission is
	// synchronous since the unified ledger): refresh the view, which hides
	// quarantined clouds like the cycle start's, and place the head. The
	// slot test reads the refreshed vector, so whatever the head does not
	// consume is open to the jobs behind it in this same cycle.
	s.refreshView(v)
	// An eviction at one instant moves only free cores: the refreshed view
	// keeps the what-if view's clouds. So when its working vector equals the
	// what-if vector, a pure policy's Choose would return the plan the
	// what-if view got. Otherwise (a backend freed more or fewer cores than
	// the victims' base plans), and for a policy that draws, place afresh.
	if !s.memoable || !slices.Equal(v.free, s.whatIf.free) {
		plan = s.cfg.Placement.Choose(s, head, v)
	}
	if plan.Empty() {
		// Cannot happen while the what-if view mirrors backend frees; if a
		// backend ever under-frees, the victims stay requeued (they will
		// redispatch) and the head keeps waiting on a fresh reservation.
		for _, le := range shields {
			le.Release()
		}
		return preemptEvictedOnly
	}
	s.dispatch(t, head, plan, false, v)
	for _, le := range shields {
		le.Release()
	}
	s.agingJob, s.agingSlips = "", 0
	return preemptDispatched
}

// evict tears one victim down and requeues it: progress credit is computed
// from the handle's last observed progress, the tenant's accounts are
// trued up to the work actually delivered, and the job re-enters its
// tenant's queue at its submission-order position with a fresh launch
// retry budget. price is the victim's eviction price (for the decision
// trace); kind names the path that chose it ("preempt" for head-driven,
// "forced_preempt" for elastic overrun).
func (s *Scheduler) evict(victim *Job, at sim.Time, price float64, kind string) []*capacity.Lease {
	credit := progressCredit(victim.handle)
	if s.tr != nil {
		s.trace(obs.TraceEvent{Kind: kind, Tenant: victim.Spec.Tenant, Job: victim.ID,
			Cloud: victim.Cloud, Workers: victim.workers(), Cores: victim.coresNow,
			Price: price, Plan: victim.Plan.String()})
	}
	shields := victim.handle.Preempt(at)
	s.m.preemptions.Inc()
	victim.Preemptions++
	victim.launchRetries = 0
	s.requeue(victim, credit)
	return shields
}

// requeue moves a running job back to queued (an eviction or outage victim,
// or a transiently failed launch), preserving queue position credit (it
// re-enters the tenant queue in submission order, ahead of everything
// submitted after it) and progress credit (the executed fraction of the
// original work discounts the next dispatch's estimate).
func (s *Scheduler) requeue(j *Job, progressFrac float64) {
	// Progress credit compounds across evictions: the last dispatch ran
	// (1 − creditFrac) of the original work, of which progressFrac finished.
	// It is applied first, so the queue entry records the credited estimate;
	// leaving Running reads no credit.
	if progressFrac > 0 {
		j.creditFrac += progressFrac * (1 - j.creditFrac)
		if j.creditFrac > 0.95 {
			j.creditFrac = 0.95 // keep the re-estimate strictly positive
		}
	}
	// Leaving Running banks the work actually delivered and backs out the
	// unused remainder of the dispatch-time charge — the same true-up a
	// completion performs.
	s.setState(j.tref, j, Queued)
	j.handle = nil
	j.dispatched = false
	j.Backfilled = false
	j.Plan = Plan{}
	j.Cloud = ""
	j.coresNow, j.accrued, j.charged = 0, 0, 0
	j.deadlineGrown, j.spotReplaced, j.shrunk = 0, 0, false
	j.relocating = false
}
