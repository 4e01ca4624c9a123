package sched

import (
	"time"

	"repro/internal/obs"
)

// The scheduler's observability plumbing: the former block of plain public
// int stats lives on registry counters now (atomic, so the elastic loop
// goroutine and stat readers no longer race), the queue and running-set
// sizes are gauges, and each cycle's wall-clock cost is split into phase
// histograms. Decision tracing (dispatch, reserve, block/wake, preemption,
// consolidation) goes through the optional obs.Tracer in Config.Trace —
// every emission site is guarded by a nil check so untraced runs pay
// nothing, and events carry only virtual-time state so same-seed runs
// produce byte-identical traces.

// phaseBuckets are the per-cycle phase timing bounds in seconds: cycles run
// microseconds to tens of milliseconds, so the grid is log-spaced from 1 µs
// to 1 s.
var phaseBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}

// recoveryBuckets grade outage recovery times (requeue to redispatch) in
// virtual seconds: sub-minute recoveries are the degraded-mode goal, the
// tail rides out quarantines.
var recoveryBuckets = []float64{1, 5, 15, 60, 300, 900, 3600}

// schedMetrics holds the scheduler's registry instruments, resolved once at
// New so hot-path increments are single atomic ops with no registry lookup.
type schedMetrics struct {
	reg *obs.Registry

	cycles                *obs.Counter
	dispatched            *obs.Counter
	spanningDispatched    *obs.Counter
	backfills             *obs.Counter
	completed             *obs.Counter
	failures              *obs.Counter
	growRequests          *obs.Counter
	shrinkRequests        *obs.Counter
	spotRevocations       *obs.Counter
	spotReplacements      *obs.Counter
	patternEvents         *obs.Counter
	preemptions           *obs.Counter
	forcedPreemptions     *obs.Counter
	reservationAgings     *obs.Counter
	consolidationRequests *obs.Counter
	consolidations        *obs.Counter
	planMemoHits          *obs.Counter
	resvHoldReuses        *obs.Counter

	outages        *obs.Counter
	restores       *obs.Counter
	outageRequeues *obs.Counter
	quarantines    *obs.Counter
	readmissions   *obs.Counter
	launchRetries  *obs.Counter

	queuedJobs  *obs.Gauge
	runningJobs *obs.Gauge

	recoverySeconds *obs.Histogram

	phasePlacement  *obs.Histogram
	phaseBackfill   *obs.Histogram
	phasePreemption *obs.Histogram
	phaseElastic    *obs.Histogram

	// clock samples monotonic wall time in nanoseconds for the phase
	// histograms — the only non-virtual time in the scheduler, which is why
	// phase timings never appear in traces or experiment tables. Swappable
	// for deterministic tests.
	clock func() int64
}

// newSchedMetrics registers the scheduler's instruments in reg (a private
// registry when nil, so the scheduler always runs instrumented — the
// benchdiff gate measures the real hot path).
func newSchedMetrics(reg *obs.Registry) schedMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	phase := reg.HistogramVec("sky_sched_phase_seconds",
		"Wall-clock time per scheduling phase per cycle.", phaseBuckets, "phase")
	// Monotonic clock: observePhases only ever differences samples, and
	// time.Since's monotonic fast path costs roughly half a wall-clock read
	// — the clock is sampled several times per cycle, so it shows up.
	base := time.Now()
	return schedMetrics{
		reg:                   reg,
		cycles:                reg.Counter("sky_sched_cycles_total", "Scheduling cycles run."),
		dispatched:            reg.Counter("sky_sched_dispatched_total", "Jobs dispatched."),
		spanningDispatched:    reg.Counter("sky_sched_spanning_dispatched_total", "Dispatched jobs whose plan spans clouds."),
		backfills:             reg.Counter("sky_sched_backfills_total", "Dispatches that slid past a blocked reservation."),
		completed:             reg.Counter("sky_sched_completed_total", "Jobs completed."),
		failures:              reg.Counter("sky_sched_failures_total", "Jobs failed."),
		growRequests:          reg.Counter("sky_sched_grow_requests_total", "Elastic deadline-chasing grow requests."),
		shrinkRequests:        reg.Counter("sky_sched_shrink_requests_total", "Elastic shrink requests."),
		spotRevocations:       reg.Counter("sky_sched_spot_revocations_total", "Spot workers revoked mid-job."),
		spotReplacements:      reg.Counter("sky_sched_spot_replacements_total", "On-demand replacements grown for revoked spot workers."),
		patternEvents:         reg.Counter("sky_sched_pattern_events_total", "Communication-pattern detections delivered."),
		preemptions:           reg.Counter("sky_sched_preemptions_total", "Jobs evicted by preemption."),
		forcedPreemptions:     reg.Counter("sky_sched_forced_preemptions_total", "Elastic overrun evictions among preemptions."),
		reservationAgings:     reg.Counter("sky_sched_reservation_agings_total", "Cycles where a slipping reservation's ledger hold was dropped."),
		consolidationRequests: reg.Counter("sky_sched_consolidation_requests_total", "Consolidation migrations issued."),
		consolidations:        reg.Counter("sky_sched_consolidations_total", "Consolidations completed (plan rewritten)."),
		planMemoHits:          reg.Counter("sky_sched_plan_memo_hits_total", "Cycle-scan placements served from the within-cycle plan memo."),
		resvHoldReuses:        reg.Counter("sky_sched_resv_hold_reuses_total", "Blocked cycles whose recomputed reservation adopted the previous cycle's live ledger leases."),
		outages:               reg.Counter("sky_faults_outages_total", "Cloud outage events delivered to the scheduler."),
		restores:              reg.Counter("sky_faults_restores_total", "Cloud restore events delivered to the scheduler."),
		outageRequeues:        reg.Counter("sky_faults_outage_requeues_total", "Running gangs requeued off failed clouds."),
		quarantines:           reg.Counter("sky_faults_quarantines_total", "Flapping clouds quarantined at restore."),
		readmissions:          reg.Counter("sky_faults_readmissions_total", "Quarantined clouds readmitted to placement."),
		launchRetries:         reg.Counter("sky_faults_launch_retries_total", "Transient launch failures requeued for retry."),
		recoverySeconds:       reg.Histogram("sky_faults_recovery_seconds", "Virtual seconds from outage requeue to redispatch.", recoveryBuckets),
		queuedJobs:            reg.Gauge("sky_sched_queued_jobs", "Jobs currently queued."),
		runningJobs:           reg.Gauge("sky_sched_running_jobs", "Jobs currently running."),
		phasePlacement:        phase.With("placement"),
		phaseBackfill:         phase.With("backfill"),
		phasePreemption:       phase.With("preemption"),
		phaseElastic:          phase.With("elastic"),
		clock:                 func() int64 { return int64(time.Since(base)) },
	}
}

// observePhases books one cycle's wall-clock nanoseconds: reserve and
// preemption time are accumulated at their call sites, placement is the
// remainder of the cycle.
func (m *schedMetrics) observePhases(total, resv, preempt int64) {
	if placement := total - resv - preempt; placement > 0 {
		m.phasePlacement.Observe(float64(placement) * 1e-9)
	}
	if resv > 0 {
		m.phaseBackfill.Observe(float64(resv) * 1e-9)
	}
	if preempt > 0 {
		m.phasePreemption.Observe(float64(preempt) * 1e-9)
	}
}

// Obs returns the scheduler's metrics registry (never nil: a private one is
// created when Config.Obs was unset).
func (s *Scheduler) Obs() *obs.Registry { return s.m.reg }

// Tracer returns the decision tracer (nil when tracing is off).
func (s *Scheduler) Tracer() *obs.Tracer { return s.tr }

// trace stamps the deterministic envelope (cycle number, virtual time) on
// an event and emits it. Call sites guard with s.tr != nil so untraced runs
// never build the event.
func (s *Scheduler) trace(ev obs.TraceEvent) {
	ev.Cycle = int64(s.cycleNum)
	ev.At = int64(s.K.Now())
	s.tr.Emit(ev)
}

// Stat accessors: the former public int fields, now atomic counter reads —
// safe to call from any goroutine while the scheduler runs.

// Cycles returns the number of scheduling cycles run.
func (s *Scheduler) Cycles() int { return int(s.m.cycles.Value()) }

// Dispatched returns the number of jobs dispatched.
func (s *Scheduler) Dispatched() int { return int(s.m.dispatched.Value()) }

// SpanningDispatched returns the number of dispatched jobs with spanning plans.
func (s *Scheduler) SpanningDispatched() int { return int(s.m.spanningDispatched.Value()) }

// Backfills returns the number of dispatches that slid past a reservation.
func (s *Scheduler) Backfills() int { return int(s.m.backfills.Value()) }

// Completed returns the number of jobs that finished successfully.
func (s *Scheduler) Completed() int { return int(s.m.completed.Value()) }

// Failures returns the number of jobs that failed.
func (s *Scheduler) Failures() int { return int(s.m.failures.Value()) }

// GrowRequests returns the number of elastic grow requests.
func (s *Scheduler) GrowRequests() int { return int(s.m.growRequests.Value()) }

// ShrinkRequests returns the number of elastic shrink requests.
func (s *Scheduler) ShrinkRequests() int { return int(s.m.shrinkRequests.Value()) }

// SpotRevocations returns the number of spot workers revoked mid-job.
func (s *Scheduler) SpotRevocations() int { return int(s.m.spotRevocations.Value()) }

// SpotReplacements returns the number of on-demand spot replacements grown.
func (s *Scheduler) SpotReplacements() int { return int(s.m.spotReplacements.Value()) }

// PatternEvents returns the number of pattern detections delivered.
func (s *Scheduler) PatternEvents() int { return int(s.m.patternEvents.Value()) }

// Preemptions returns the number of evicted jobs (head-driven and forced).
func (s *Scheduler) Preemptions() int { return int(s.m.preemptions.Value()) }

// ForcedPreemptions returns the elastic overrun evictions among preemptions.
func (s *Scheduler) ForcedPreemptions() int { return int(s.m.forcedPreemptions.Value()) }

// ReservationAgings returns the cycles where a slipping reservation's ledger
// hold was dropped.
func (s *Scheduler) ReservationAgings() int { return int(s.m.reservationAgings.Value()) }

// ConsolidationRequests returns the consolidation migrations issued.
func (s *Scheduler) ConsolidationRequests() int { return int(s.m.consolidationRequests.Value()) }

// Consolidations returns the consolidations that completed.
func (s *Scheduler) Consolidations() int { return int(s.m.consolidations.Value()) }

// ResvCacheHits always returns 0: the scheduler recomputes the blocked
// head's reservation every cycle and keeps no reservation cache. Kept only
// because the repo benchmark (perfbench) still reads it.
func (s *Scheduler) ResvCacheHits() int { return 0 }

// PlanMemoHits returns the cycle-scan placements served from the
// within-cycle plan memo.
func (s *Scheduler) PlanMemoHits() int { return int(s.m.planMemoHits.Value()) }

// ViewSeals always returns 0: plan memos are invalidated at every cycle
// start and never carried across cycles. Kept only because the repo
// benchmark (perfbench) still reads it.
func (s *Scheduler) ViewSeals() int { return 0 }

// ResvHoldReuses returns the blocked cycles whose recomputed reservation
// adopted the previous cycle's live ledger leases instead of re-reserving.
func (s *Scheduler) ResvHoldReuses() int { return int(s.m.resvHoldReuses.Value()) }

// ScoreWorkerCount returns the number of goroutines that score placements:
// always 1, since the scheduler runs every phase on the kernel thread. Kept
// for benchmark harnesses that print it in their context line.
func (s *Scheduler) ScoreWorkerCount() int { return 1 }

// Outages returns the cloud outage events delivered to the scheduler.
func (s *Scheduler) Outages() int { return int(s.m.outages.Value()) }

// Restores returns the cloud restore events delivered to the scheduler.
func (s *Scheduler) Restores() int { return int(s.m.restores.Value()) }

// OutageRequeues returns the running gangs requeued off failed clouds.
func (s *Scheduler) OutageRequeues() int { return int(s.m.outageRequeues.Value()) }

// Quarantines returns the flapping clouds quarantined at restore.
func (s *Scheduler) Quarantines() int { return int(s.m.quarantines.Value()) }

// Readmissions returns the quarantined clouds readmitted to placement.
func (s *Scheduler) Readmissions() int { return int(s.m.readmissions.Value()) }

// LaunchRetries returns the transient launch failures requeued for retry.
func (s *Scheduler) LaunchRetries() int { return int(s.m.launchRetries.Value()) }
