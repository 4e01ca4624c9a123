package sched

import (
	"errors"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Degraded-mode scheduling: the scheduler's half of the fault-tolerance
// story. The capacity ledger's FailCloud transition already evicted the dead
// cloud's leases and zeroed its committed cores in one step; what remains
// is policy — which running gangs to requeue and with how much progress
// credit, what to do with a head reservation now claiming a dead cloud, and
// when a cloud that keeps crashing should be quarantined behind a jittered
// exponential backoff instead of being trusted the moment it reports
// healthy.
//
// Everything here is pay-for-what-you-use: a run with no fault events
// allocates no fault state, draws nothing from the kernel RNG (the jitter
// RNG is seeded lazily on the first fault), and adds only a nil-map length
// check to the cycle path — the benchmark gates hold with the hooks in
// place.
//
// Determinism: fault events arrive on the kernel thread in virtual-time
// order, victims are requeued in submission order (s.running's invariant),
// and all randomness (quarantine and retry jitter) draws from the lazily
// seeded fault RNG in that same order — so same-seed fault-injected runs
// are byte-identical.

// ErrTransientLaunch marks a launch failure worth retrying: backends wrap
// deploy-path errors they believe are transient (an injected deploy fault, a
// timed-out propagation) with it, whether Launch returns the error or the
// completion callback reports it later. complete then requeues the job for
// up to LaunchRetryBudget jittered-backoff retries (retryLaunch) instead of
// failing it.
var ErrTransientLaunch = errors.New("sched: transient launch failure")

// ensureFaultState allocates the fault-tracking maps on first use.
func (s *Scheduler) ensureFaultState() {
	if s.downClouds == nil {
		s.downClouds = make(map[string]bool)
		s.quarUntil = make(map[string]sim.Time)
		s.failStreak = make(map[string]int)
		s.lastFail = make(map[string]sim.Time)
	}
}

// faultRand returns the fault-path jitter RNG, seeding it from the kernel
// RNG on first use — a fault-free run never perturbs the kernel stream, so
// every experiment table with faults disabled stays byte-identical to the
// pre-fault scheduler's.
func (s *Scheduler) faultRand() *rand.Rand {
	if s.faultRNG == nil {
		s.faultRNG = rand.New(rand.NewSource(s.K.Rand().Int63()))
	}
	return s.faultRNG
}

// cloudFailed handles EventCloudFailed: record the outage (and its place in
// the cloud's flap history), requeue every running gang with workers on the
// dead cloud, and drop a head reservation that claims it. The ledger
// transition (FailCloud) has already happened — the backend performs it
// before notifying, so the evicted leases are closed by the time Preempt
// walks them.
func (s *Scheduler) cloudFailed(cloud string) {
	s.ensureFaultState()
	if s.downClouds[cloud] {
		return // idempotent, like the ledger transition underneath
	}
	now := s.K.Now()
	s.downClouds[cloud] = true
	s.m.outages.Inc()
	if last, ok := s.lastFail[cloud]; ok && now-last <= flapWindow {
		s.failStreak[cloud]++
	} else {
		s.failStreak[cloud] = 1
	}
	s.lastFail[cloud] = now
	if s.tr != nil {
		s.trace(obs.TraceEvent{Kind: "outage", Cloud: cloud})
	}
	s.requeueOn(cloud, now)
	s.dropResvOn(cloud)
	// The capacity world changed out from under every memoized plan.
	s.invalidateMemos()
	s.kick()
}

// cloudRestored handles EventCloudRestored: clear the down mark and — when
// the cloud's recent failure streak crosses the flap threshold — quarantine
// it behind a jittered exponential backoff before the placement path may
// trust it again. Naive mode (the E14 baseline) readmits immediately,
// so flapping clouds get jobs placed straight back onto them.
func (s *Scheduler) cloudRestored(cloud string) {
	s.ensureFaultState()
	now := s.K.Now()
	if s.downClouds[cloud] {
		delete(s.downClouds, cloud)
		s.m.restores.Inc()
		if s.tr != nil {
			s.trace(obs.TraceEvent{Kind: "restore", Cloud: cloud})
		}
		if !s.cfg.NaiveFaultMode && s.failStreak[cloud] >= flapThreshold {
			// The quarantine doubles per failure past the flap threshold.
			d := Backoff(faultQuarantineBase, s.failStreak[cloud]-flapThreshold, s.faultRand())
			s.quarUntil[cloud] = now + d
			s.m.quarantines.Inc()
			// Wake a cycle when the quarantine lapses; pruneQuarantine readmits.
			s.K.Schedule(d, s.kickFn)
		}
	}
	// A restore for a cloud the scheduler never marked down (a partial
	// outage ending, say) still means capacity returned: invalidate and
	// recheck the queue either way.
	s.invalidateMemos()
	s.kick()
}

// Backoff is the one jittered exponential backoff rule for quarantines and
// launch retries: base doubled `doublings` times, capped at 15 minutes, then
// jittered to [0.5, 1.5) of the nominal so synchronized failures do not
// retry or readmit in lockstep. It draws exactly one Float64 from rng.
func Backoff(base sim.Time, doublings int, rng *rand.Rand) sim.Time {
	d := base
	for ; doublings > 0 && d < backoffCap; doublings-- {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	return sim.Time(float64(d) * (0.5 + rng.Float64()))
}

// requeueOn tears down and requeues every running gang with workers on the
// failed cloud, in submission order. Each victim's dead-cloud leases are
// already closed (FailCloud evicted them), so Preempt's eviction transition
// no-ops there; leases on surviving member clouds convert to shields that
// are released immediately — the survivors' cores return to the pool for
// the requeued queue to re-place. Progress credit follows the preemption
// machinery (the executed fraction discounts the next dispatch's estimate,
// charge, and reservation) unless NaiveFaultMode zeroes it. Like an
// eviction, the requeue gives the job a fresh launch retry budget.
func (s *Scheduler) requeueOn(cloud string, now sim.Time) {
	victims := s.runScratch[:0]
	for _, j := range s.running {
		if j.Plan.WorkersOn(cloud) > 0 && tearable(j) {
			victims = append(victims, j)
		}
	}
	s.runScratch = victims
	for _, j := range victims {
		credit := 0.0
		if !s.cfg.NaiveFaultMode {
			credit = progressCredit(j.handle)
		}
		if s.tr != nil {
			s.trace(obs.TraceEvent{Kind: "requeue", Tenant: j.Spec.Tenant, Job: j.ID,
				Cloud: cloud, Workers: j.workers(), Cores: j.coresNow, Plan: j.Plan.String()})
		}
		for _, sh := range j.handle.Preempt(now) {
			sh.Release()
		}
		s.m.outageRequeues.Inc()
		j.launchRetries = 0
		s.requeue(j, credit)
		j.outageRequeuedAt = now
	}
}

// dropResvOn releases the head reservation when its plan claims the failed
// cloud: the dead-cloud leases are already closed, the surviving members'
// holds are returned, and the next cycle recomputes the claim against the
// shrunken federation (remapping it off the failed cloud).
func (s *Scheduler) dropResvOn(cloud string) {
	if s.resv == nil || s.resv.plan.WorkersOn(cloud) == 0 {
		return
	}
	s.dropReservation()
	s.agingJob, s.agingSlips = "", 0
}

// pruneQuarantine readmits clouds whose quarantine has lapsed and filters
// the still-quarantined ones out of the cycle snapshot, so no placement,
// reservation, or backfill decision can touch them. Down clouds stay in the
// snapshot — the ledger reports them at zero free cores, which the policies
// already refuse — but quarantined clouds are healthy in the ledger and must
// be hidden here. Called only when the quarantine set is non-empty.
func (s *Scheduler) pruneQuarantine(snap []CloudInfo) []CloudInfo {
	now := s.K.Now()
	for name, until := range s.quarUntil {
		if now >= until {
			delete(s.quarUntil, name)
			s.failStreak[name] = 0 // served its sentence: clean slate
			delete(s.lastFail, name)
			s.m.readmissions.Inc()
		}
	}
	if len(s.quarUntil) == 0 {
		return snap
	}
	out := snap[:0]
	for _, c := range snap {
		if _, q := s.quarUntil[c.Name]; !q {
			out = append(out, c)
		}
	}
	return out
}

// CloudDown reports whether the scheduler currently considers the cloud
// failed (between its outage and restore events).
func (s *Scheduler) CloudDown(cloud string) bool { return s.downClouds[cloud] }

// Quarantined reports whether the cloud is readmission-quarantined right now.
func (s *Scheduler) Quarantined(cloud string) bool {
	until, ok := s.quarUntil[cloud]
	return ok && s.K.Now() < until
}
