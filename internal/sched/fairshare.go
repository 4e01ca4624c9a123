package sched

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// Tenant is one share-holder in the federation: a weighted queue of jobs
// plus the usage accounting that drives arbitration.
type Tenant struct {
	Name   string
	Weight float64

	queue []queueEntry
	// usage is charged core-seconds: an estimate is charged at dispatch
	// (so one tenant cannot capture the whole federation within a single
	// cycle) and trued up to actual duration at completion. With
	// Config.UsageHalfLife set it decays exponentially (see decay), so the
	// arbiter weighs recent consumption, not all of history.
	usage float64
	// usageAt is the instant usage was last decayed to.
	usageAt sim.Time
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
}

// queueEntry is one queued job with its blocked-head watermark record: wake
// is the freed-core clock reading (Scheduler.freedCum) at which enough cores
// will have freed to possibly fit the job again, or noWake while the job has
// no record (see Scheduler.canFit). Keeping the record here, not on the Job,
// lets the cycle step over blocked jobs without loading them.
type queueEntry struct {
	job  *Job
	wake int64
}

// noWake marks a queue entry without a watermark record: every clock
// reading reaches it.
const noWake = math.MinInt64

// decay brings the tenant's charged usage forward to now under the
// configured half-life: usage halves every UsageHalfLife of wall time, so a
// tenant idle for several half-lives returns near parity instead of with a
// banked deficit that would let it monopolize the next cycles.
func (s *Scheduler) decay(t *Tenant) {
	now := s.K.Now()
	hl := s.cfg.UsageHalfLife
	if hl > 0 && now > t.usageAt && t.usage != 0 {
		// Decay magnitude regardless of sign, so a (transient) negative
		// balance also relaxes toward parity instead of freezing.
		t.usage *= math.Exp2(-float64(now-t.usageAt) / float64(hl))
	}
	t.usageAt = now
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
// Usage is decayed once per cycle (decayTenants) rather than per call:
// virtual time does not advance inside a cycle, so re-decaying on every
// scan step of the same cycle is a no-op by construction.
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

// decayTenants brings every tenant's usage forward to the cycle's instant,
// so the scan loop's arbitration keys are decay-consistent without a decay
// call per nextTenant step.
func (s *Scheduler) decayTenants() {
	for _, t := range s.tenantList {
		s.decay(t)
	}
}

// charge books the dispatch-time estimate against the tenant's share.
// Elastic growth (deadline chasing, spot replacement) is deliberately not
// charged: replacement capacity restores the job's entitlement, and
// deadline growth is the tenant trading cloud cost for time — it is billed
// by the cloud, not by the share.
func (s *Scheduler) charge(t *Tenant, j *Job, estSeconds float64) {
	s.decay(t)
	j.charged = float64(j.Cores()) * estSeconds
	t.usage += j.charged
}

// trueUp replaces the dispatch estimate with the actual core-seconds the
// job held over time: the per-resize ledger (runCoreSeconds) accounts
// grow/shrink at the size the job had when the time elapsed, instead of
// retroactively applying the final size to the whole runtime. Under decay
// the charge has itself decayed inside t.usage since dispatch, so the
// amount backed out is the charge's decayed remainder — subtracting the
// full original would drive usage permanently negative.
func (s *Scheduler) trueUp(t *Tenant, j *Job, now sim.Time) {
	s.decay(t)
	charged := j.charged
	if hl := s.cfg.UsageHalfLife; hl > 0 && now > j.Started {
		charged *= math.Exp2(-float64(now-j.Started) / float64(hl))
	}
	actual := j.runCoreSeconds(now)
	t.usage += actual - charged
	t.delivered += actual
}

// Shares returns each tenant's fraction of delivered core-seconds
// (including running jobs' elapsed time at the sizes they actually held),
// the quantity that converges to the configured weights under saturation.
// Finished work is read from the per-tenant delivered aggregates and live
// work from the running list — no walk over finished jobs.
func (s *Scheduler) Shares() map[string]float64 {
	now := s.K.Now()
	raw := make(map[string]float64, len(s.tenants))
	for name, t := range s.tenants {
		raw[name] = t.delivered
	}
	for _, j := range s.running {
		if j.State == Running {
			raw[j.Spec.Tenant] += j.runCoreSeconds(now)
		}
	}
	// Sum in name-sorted tenant order, not map iteration order: the total
	// feeds eviction prices (traced, and a sort key for victim selection),
	// where a last-ulp wobble from a randomized accumulation order shows up
	// as run-to-run nondeterminism.
	var total float64
	for _, t := range s.tenantList {
		total += raw[t.Name]
	}
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		if total > 0 {
			out[name] = v / total
		} else {
			out[name] = 0
		}
	}
	return out
}

// EntitledShares returns the weight-proportional target shares. Weights
// are summed in name-sorted tenant order for the reason Shares gives: with
// fractional weights a map-order total differs in the last bit between
// calls.
func (s *Scheduler) EntitledShares() map[string]float64 {
	var total float64
	for _, t := range s.tenantList {
		total += t.Weight
	}
	out := make(map[string]float64, len(s.tenantList))
	for _, t := range s.tenantList {
		if total > 0 {
			out[t.Name] = t.Weight / total
		}
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
