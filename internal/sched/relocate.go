package sched

import "repro/internal/obs"

// Scheduler-driven migration: running gangs are no longer pinned to the
// plan that dispatched them. The elastic pass watches every running
// spanning job and, once one of its member clouds could host the whole
// gang (a co-tenant finished, a cloud grew), live-migrates the other
// members' workers onto it — the autonomic consolidation proposal applied
// to a *running* scheduler job. The backend performs the actual moves
// (core's fedBackend live-migrates the worker VMs over the federation
// machinery and retargets their committed cores through the capacity
// ledger; SimBackend retargets its ledger leases), and reports back so the
// job's plan, its release-list entries, and the anchor cloud follow.

// consolidationTarget returns the member cloud that could host the job's
// whole gang right now, or "". Candidates must have physical room for
// every worker arriving from the other members AND pass a ledger probe, so
// consolidation never takes cores an outstanding backfill reservation
// needs. Among several viable members the one already holding the most
// workers wins (fewest moves), ties keeping plan order.
func (s *Scheduler) consolidationTarget(j *Job) string {
	l := s.B.Ledger()
	now := s.K.Now()
	cpw := j.coresPerWorker()
	total := j.Plan.Workers()
	best, bestWorkers := "", 0
	for _, m := range j.Plan.Members {
		arriving := (total - m.Workers) * cpw
		if arriving <= 0 {
			continue
		}
		if l.Free(m.Cloud) >= arriving && l.Probe(m.Cloud, arriving, now) && m.Workers > bestWorkers {
			best, bestWorkers = m.Cloud, m.Workers
		}
	}
	return best
}

// startConsolidation issues one Handle.Relocate per non-target member and
// rewrites the plan as each move completes. The job's relocating flag keeps
// the elastic pass from stacking a second consolidation on an in-flight one.
func (s *Scheduler) startConsolidation(j *Job, to string) {
	j.relocating = true
	s.m.consolidationRequests.Inc()
	if s.tr != nil {
		s.trace(obs.TraceEvent{Kind: "consolidate", Tenant: j.Spec.Tenant, Job: j.ID,
			To: to, Workers: j.Plan.Workers(), Plan: j.Plan.String()})
	}
	type move struct {
		from    string
		workers int
	}
	var moves []move
	for _, m := range j.Plan.Members {
		if m.Cloud != to {
			moves = append(moves, move{m.Cloud, m.Workers})
		}
	}
	pending := len(moves)
	failed := false
	for _, mv := range moves {
		mv := mv
		j.handle.Relocate(mv.from, to, mv.workers, func(err error) {
			if err == nil && j.State == Running {
				s.jobRelocated(j, mv.from, to, mv.workers)
			} else if err != nil {
				failed = true
			}
			pending--
			if pending == 0 {
				j.relocating = false
				if !failed && j.State == Running {
					s.m.consolidations.Inc()
				}
			}
		})
	}
}

// JobRelocated tells the scheduler a backend moved `workers` of a running
// job's workers between clouds outside a scheduler-initiated consolidation
// (an autonomic relocation Action executed by the federation): the plan,
// the anchor, and the pending-release entries follow. Unknown or
// non-running jobs are ignored.
func (s *Scheduler) JobRelocated(id, from, to string, workers int) {
	j := s.jobByID(id)
	if j == nil || j.State != Running {
		return
	}
	s.jobRelocated(j, from, to, workers)
}

// jobRelocated applies one completed worker move to the job's record: the
// plan members are rewritten, the anchor follows, and the job's pending
// release entries move with the plan (same instants, new clouds) so future
// reservations walk the truth.
func (s *Scheduler) jobRelocated(j *Job, from, to string, workers int) {
	if s.tr != nil {
		s.trace(obs.TraceEvent{Kind: "relocate", Tenant: j.Spec.Tenant, Job: j.ID,
			From: from, To: to, Workers: workers})
	}
	s.removeReleases(j)
	j.Plan = j.Plan.MoveWorkers(from, to, workers)
	j.Cloud = j.Plan.Primary()
	s.insertReleases(j)
	s.kick()
}
