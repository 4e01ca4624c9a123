package sched

import "repro/internal/sim"

// The elastic policy hook: a periodic pass over running jobs that requests
// cluster grow/shrink through the backend handle (core.Federation performs
// the actual provisioning). Growth chases deadlines the way the emr service
// does, but federation-wide and fair-share-aware; shrink returns elastic
// extras to the pool once the map phase drains, so backfilled and queued
// jobs see the capacity. Grow requests are not guaranteed: the backend
// probes the capacity ledger, where outstanding backfill reservations live
// between cycles, and denies growth that would take cores a reserved gang
// start needs (growOne rolls the counters back on denial).

// elasticTick evaluates every running job once, in submission order (the
// order the former all-jobs scan produced). The running list is copied to
// scratch first so backend callbacks that complete a job mid-pass cannot
// disturb the iteration.
func (s *Scheduler) elasticTick() {
	t0 := s.m.clock()
	defer func() {
		if d := s.m.clock() - t0; d > 0 {
			s.m.phaseElastic.Observe(float64(d) * 1e-9)
		}
	}()
	// Reservation aging is clock-driven: a quiet system (no completions, no
	// submissions) runs no cycles, so a slipping reservation would never be
	// audited. The elastic ticker doubles as that audit clock.
	if s.cfg.maxSlips() > 0 && s.resv != nil {
		s.kick()
	}
	s.runScratch = append(s.runScratch[:0], s.running...)
	for _, j := range s.runScratch {
		if j.State != Running || j.handle == nil {
			continue
		}
		// Forced-preempt path: the voluntary shrink below hands back only
		// elastic extras; a backfilled job that overran its estimate badly
		// enough while the head's reservation waits gets the whole gang
		// reclaimed through the same eviction machinery as head-driven
		// preemption. The shields it mints persist until the next cycle so
		// an interleaved grow cannot take the freed cores first. Scoped to
		// overrunners actually in the reservation's way: evicting a gang on
		// clouds the reserved plan never touches frees nothing the head can
		// use, so such jobs run on (see feedsReservation).
		if s.cfg.EnablePreemption && s.resv != nil && preemptible(j) &&
			float64(s.K.Now()-j.Started) > preemptOverrunFactor*float64(j.estDuration) &&
			s.feedsReservation(j) {
			var price float64
			if s.tr != nil { // Shares/EntitledShares allocate; price only feeds the trace
				price = s.evictPrice(j, s.K.Now(), s.Shares(), s.EntitledShares())
			}
			s.m.forcedPreemptions.Inc()
			s.shields = append(s.shields, s.evict(j, s.resv.at, price, "forced_preempt")...)
			s.kick()
			continue
		}
		// Consolidation pass: a spanning gang whose whole worker set now
		// fits one of its member clouds migrates onto it (see relocate.go).
		if s.cfg.EnableConsolidation && j.Plan.Spanning() && !j.relocating {
			if to := s.consolidationTarget(j); to != "" {
				s.startConsolidation(j, to)
			}
		}
		md, mt, rd, rt := j.handle.Progress()
		if j.Spec.Deadline > 0 {
			eta := s.predictETA(j, md, mt, rd, rt)
			if eta > j.Spec.Deadline-s.cfg.DeadlineMargin &&
				(j.Spec.MaxExtraWorkers == 0 || j.deadlineGrown < j.Spec.MaxExtraWorkers) {
				j.deadlineGrown++
				s.m.growRequests.Inc()
				s.growOne(j, &j.deadlineGrown)
			}
		}
		// Map phase drained: deadline-chasing extras are idle relative to
		// the reduce tail — hand them back. Spot replacements stay: they
		// restore the job's entitled size, not surplus.
		if j.deadlineGrown > 0 && !j.shrunk && mt > 0 && md >= mt && rt > 0 {
			j.shrunk = true
			if n := j.handle.Shrink(j.deadlineGrown); n > 0 {
				s.m.shrinkRequests.Inc()
				s.resize(j, -n*j.coresPerWorker())
				s.kick()
			}
		}
	}
}

// feedsReservation reports whether the running job holds cores on any cloud
// the blocked head's reserved plan needs — the scope of the forced-preempt
// pass. True with no reserved plan recorded (a conservative reservation
// without a concrete plan could start anywhere, so every overrunner is in
// scope, the pre-scoping behaviour).
func (s *Scheduler) feedsReservation(j *Job) bool {
	if s.resv == nil {
		return false
	}
	if s.resv.plan.Empty() {
		return true
	}
	for _, m := range j.Plan.Members {
		if s.resv.plan.WorkersOn(m.Cloud) > 0 {
			return true
		}
	}
	return false
}

// growOne requests one extra on-demand worker, rolling the given counter
// (and the public total) back if the backend cannot provision it; on
// success the delivered-capacity ledger records the size change.
func (s *Scheduler) growOne(j *Job, counter *int) {
	j.GrewBy++
	h := j.handle
	h.Grow(1, func(err error) {
		if err != nil {
			j.GrewBy--
			*counter--
			return
		}
		if j.State == Running {
			s.resize(j, j.coresPerWorker())
		}
	})
}

// predictETA projects completion from observed progress (elapsed divided by
// the completed-task fraction), falling back to the dispatch estimate while
// nothing has finished.
func (s *Scheduler) predictETA(j *Job, md, mt, rd, rt int) sim.Time {
	done, total := md+rd, mt+rt
	if total <= 0 || done <= 0 {
		return j.Started + j.estDuration
	}
	elapsed := s.K.Now() - j.Started
	return j.Started + sim.Time(float64(elapsed)*float64(total)/float64(done))
}
