package sched

import (
	"sort"

	"repro/internal/sim"
)

// Tenant is one share-holder in the federation: a weighted queue of jobs
// plus the usage accounting that drives arbitration. The queue keeps a
// summary, its smallest entry demand, so that behind a held reservation
// the cycle can skip a tenant none of whose entries can fit in one
// comparison instead of walking the queue.
type Tenant struct {
	Name   string
	Weight float64

	queue []queueEntry
	// minDemand is the smallest demand w·cpw among the queue's entries and
	// minCount how many entries have it (0 for an empty queue). enqueue and
	// popQueued maintain both; when the last entry at the minimum leaves,
	// minStale marks the summary for minQueuedDemand to recompute.
	minDemand, minCount int
	minStale            bool
	// usage is charged core-seconds, cumulative over the tenant's history:
	// an estimate is charged at dispatch (so one tenant cannot capture the
	// whole federation within a single cycle) and trued up to actual
	// duration at completion.
	usage float64
	// delivered is actual core-seconds of finished work, the quantity
	// Shares reports.
	delivered float64
	// scan is this cycle's queue scan position (the former per-cycle idx
	// map); scanCycle tells stale positions from a previous cycle apart.
	scan      int
	scanCycle int
	// boosted mirrors "patternOf[name] is all-to-all or ring" — the only
	// question placement scoring asks of the pattern map, kept here so the
	// per-candidate scoring loops skip the string map lookup.
	boosted bool
	// share and entitled are the tenant's Shares and EntitledShares values
	// as of the last computeShares call: eviction prices read them.
	share, entitled float64
}

// queueEntry is one queued job with its gang shape: w workers of cpw cores
// each (Job.workers and Job.coresPerWorker, fixed at Submit), with w = 0
// and cpw = 1 for an external job, which takes no capacity from the view.
// est is the job's estimate() at enqueue; only requeue changes a job's
// estimate (its progress credit), and it applies the credit before the job
// re-enters the queue. Keeping shape and estimate here, not only on the
// Job, lets the cycle run the slot test and the backfill bound, and step
// over jobs that fail either, without loading them.
type queueEntry struct {
	job    *Job
	w, cpw int32
	est    float64
}

// demand returns the entry's core demand w·cpw (0 for an external job).
func (e *queueEntry) demand() int { return int(e.w) * int(e.cpw) }

// noteDemand adds one entry's demand to the queue summary.
func (t *Tenant) noteDemand(d int) {
	switch {
	case t.minCount == 0 || d < t.minDemand:
		t.minDemand, t.minCount = d, 1
	case d == t.minDemand:
		t.minCount++
	}
}

// dropDemand removes one entry's demand from the queue summary. The
// summary goes stale when the last entry at the minimum leaves a non-empty
// queue: the next minimum is not known without a walk.
func (t *Tenant) dropDemand(d int) {
	if t.minStale || d != t.minDemand {
		return
	}
	if t.minCount--; t.minCount == 0 && len(t.queue) > 0 {
		t.minStale = true
	}
}

// minQueuedDemand returns the smallest demand among the tenant's queue
// entries, first recomputing a stale summary in one pass over the queue.
func (t *Tenant) minQueuedDemand() int {
	if t.minStale {
		t.minCount, t.minStale = 0, false
		for i := range t.queue {
			t.noteDemand(t.queue[i].demand())
		}
	}
	return t.minDemand
}

// queueUnfit reports whether no entry of t's non-empty queue passes the slot
// test on v: every entry's demand w·cpw exceeds the cpw = 1 slot sum
// Σ max(free, 0), which is at least cpw·Σ⌊max(free, 0)/cpw⌋, the most
// cores any cpw-core gang fitting v can take. The summary covers the whole
// queue, so entries the scan already passed only make the answer more
// cautious.
func (s *Scheduler) queueUnfit(t *Tenant, v *CloudView) bool {
	return t.minQueuedDemand() > s.fitRow(v, 1).slots
}

// AddTenant registers a tenant with the given weight (replacing the weight
// if the tenant exists). Weight <= 0 is treated as 1.
func (s *Scheduler) AddTenant(name string, weight float64) *Tenant {
	if weight <= 0 {
		weight = 1
	}
	t := s.tenants[name]
	if t == nil {
		t = &Tenant{Name: name}
		if pt := s.patternOf[name]; pt == PatternAllToAll || pt == PatternRing {
			t.boosted = true // a detection can precede the tenant's first job
		}
		s.tenants[name] = t
		// Keep the scan list name-sorted: nextTenant's in-order walk is what
		// makes equal fair-share keys break ties by name.
		i := sort.Search(len(s.tenantList), func(k int) bool { return s.tenantList[k].Name > name })
		s.tenantList = append(s.tenantList, nil)
		copy(s.tenantList[i+1:], s.tenantList[i:])
		s.tenantList[i] = t
	}
	t.Weight = weight
	return t
}

// Tenants returns tenant names, sorted.
func (s *Scheduler) Tenants() []string {
	out := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TenantQueueLen returns the number of queued jobs for one tenant.
func (s *Scheduler) TenantQueueLen(name string) int {
	if t := s.tenants[name]; t != nil {
		return len(t.queue)
	}
	return 0
}

// nextTenant picks the tenant with the lowest usage-per-weight among those
// with an unexamined queued job (each tenant's scan field tracks this
// cycle's position). The walk is over the name-sorted tenant list — no map
// iteration — and keeps the first of equal keys, which is exactly the
// former break-ties-by-name rule. The cycle calls it once per decision, not
// per visited job: the keys and the candidate set move only when a job
// dispatches, fails or is evicted, and until then the tenant it picked
// stays its answer for as long as that tenant has unexamined jobs.
func (s *Scheduler) nextTenant() *Tenant {
	var best *Tenant
	var bestKey float64
	for _, t := range s.tenantList {
		if t.scanCycle != s.cycleNum {
			t.scan, t.scanCycle = 0, s.cycleNum
		}
		if t.scan >= len(t.queue) {
			continue
		}
		key := t.usage / t.Weight
		if best == nil || key < bestKey {
			best, bestKey = t, key
		}
	}
	return best
}

// charge books the dispatch-time estimate against the tenant's share.
// Elastic growth (deadline chasing, spot replacement) is deliberately not
// charged: replacement capacity restores the job's entitlement, and
// deadline growth is the tenant trading cloud cost for time — it is billed
// by the cloud, not by the share.
func (s *Scheduler) charge(t *Tenant, j *Job, estSeconds float64) {
	j.charged = float64(j.Cores()) * estSeconds
	t.usage += j.charged
}

// trueUp replaces the dispatch estimate with the actual core-seconds the
// job held over time: the per-resize ledger (runCoreSeconds) accounts
// grow/shrink at the size the job had when the time elapsed, instead of
// retroactively applying the final size to the whole runtime.
func (s *Scheduler) trueUp(t *Tenant, j *Job, now sim.Time) {
	actual := j.runCoreSeconds(now)
	t.usage += actual - j.charged
	t.delivered += actual
}

// computeShares sets every tenant's share to its fraction of delivered
// core-seconds now (including running jobs' elapsed time at the sizes they
// actually held) and its entitled share to its weight over the total.
// Finished work is read from the per-tenant delivered aggregates and live
// work from the running list — no walk over finished jobs, and no map.
// Totals are summed in name-sorted tenant order, not map iteration order:
// the shares feed eviction prices (traced, and a sort key for victim
// selection), where a last-ulp wobble from a randomized accumulation order
// shows up as run-to-run nondeterminism.
func (s *Scheduler) computeShares(now sim.Time) {
	for _, t := range s.tenantList {
		t.share = t.delivered
	}
	for _, j := range s.running {
		if j.State == Running {
			j.tref.share += j.runCoreSeconds(now)
		}
	}
	var total, weights float64
	for _, t := range s.tenantList {
		total += t.share
		weights += t.Weight
	}
	for _, t := range s.tenantList {
		if total > 0 {
			t.share /= total
		} else {
			t.share = 0
		}
		t.entitled = 0
		if weights > 0 {
			t.entitled = t.Weight / weights
		}
	}
}

// Shares returns each tenant's fraction of delivered core-seconds, the
// quantity that converges to the configured weights under saturation.
func (s *Scheduler) Shares() map[string]float64 {
	s.computeShares(s.K.Now())
	out := make(map[string]float64, len(s.tenantList))
	for _, t := range s.tenantList {
		out[t.Name] = t.share
	}
	return out
}

// EntitledShares returns the weight-proportional target shares.
func (s *Scheduler) EntitledShares() map[string]float64 {
	s.computeShares(s.K.Now())
	out := make(map[string]float64, len(s.tenantList))
	for _, t := range s.tenantList {
		out[t.Name] = t.entitled
	}
	return out
}

// DeliveredCoreSeconds returns a tenant's finished core-seconds.
func (s *Scheduler) DeliveredCoreSeconds(name string) float64 {
	if t := s.tenants[name]; t != nil {
		return t.delivered
	}
	return 0
}
