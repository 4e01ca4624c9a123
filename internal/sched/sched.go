// Package sched is a federation-wide elastic job scheduler: the layer that
// decides which tenant's job runs where and when across the sky-computing
// federation's clouds (§II). It combines
//
//   - multi-tenant job queues with weighted fair-share arbitration
//     (fairshare.go): tenants are served in order of charged usage divided
//     by weight, so delivered core-seconds converge to configured weights
//     under contention;
//   - locality-aware placement (placement.go): candidate clouds are scored
//     by HDFS data locality, free capacity, and inter-site bandwidth taken
//     from the simnet topology;
//   - EASY backfilling (backfill.go): when the next entitled job cannot fit,
//     it receives a reservation computed from running jobs' estimated
//     completions, and smaller jobs may slide past it as long as they do not
//     delay the reserved start;
//   - an elastic policy hook (elastic.go): running jobs that slip past their
//     deadline grow through the backend (core.Federation cluster growth),
//     shrink their extras once the map phase drains, and spot-revocation and
//     pattern-detection events from the nimbus and autonomic layers feed
//     back into replacement capacity and placement bias (events.go).
//
// The scheduler is deliberately backend-agnostic: core.Federation implements
// Backend for real federated execution (per-job virtual clusters running
// MapReduce), and SimBackend provides a lightweight synthetic backend for
// tests and benchmarks.
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/capacity"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/sim"
)

// State is a job's lifecycle position.
type State int

// Job states.
const (
	Queued State = iota
	Running
	Done
	Failed
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	}
	return "failed"
}

// JobSpec describes a job submitted to the scheduler.
type JobSpec struct {
	Tenant string
	Name   string
	// MR is the MapReduce payload executed by the backend.
	MR mapreduce.Job
	// Workers is the number of VMs to provision for the job.
	Workers int
	// CoresPerWorker sizes each VM (zero means 1).
	CoresPerWorker int
	// InputSite names the cloud holding the job's HDFS input ("" = none);
	// placement scores clouds by locality to it, and non-local runs stream
	// InputBytes over the inter-site links.
	InputSite  string
	InputBytes int64
	// Deadline is an absolute completion target (0 = none). Late jobs grow
	// through the elastic hook.
	Deadline sim.Time
	// MaxExtraWorkers bounds elastic growth (0 = unbounded, as in emr).
	MaxExtraWorkers int
	// Spot provisions revocable spot workers at Bid.
	Spot bool
	Bid  float64
	// EstimateSeconds is the runtime estimate on speed-1 hardware used for
	// backfill reservations and fair-share charging. Zero derives it from
	// the MR payload.
	EstimateSeconds float64
	// Run, when set, makes this an external job: the scheduler arbitrates
	// its start under the tenant's share (charging Workers*CoresPerWorker
	// cores) but execution happens on capacity the caller already owns —
	// the path emr deadline jobs take through the gate. Run must invoke
	// done exactly once, with the execution error or nil.
	Run func(done func(error))
}

// External reports whether the job executes outside scheduler-provisioned
// capacity. The pointer receiver keeps the cycle's per-visit check from
// copying the whole spec.
func (s *JobSpec) External() bool { return s.Run != nil }

// Outcome reports a finished job.
type Outcome struct {
	Result mapreduce.Result
	Err    error
}

// Job is the scheduler's record of one submission.
type Job struct {
	ID   string
	Spec JobSpec

	State State
	// Cloud is the plan's anchor cloud (kept for the common single-cloud
	// case; Plan carries the full gang placement).
	Cloud     string
	Plan      Plan
	Submitted sim.Time
	Started   sim.Time
	Finished  sim.Time
	// Backfilled marks a job that slid past a blocked reservation.
	Backfilled bool
	// GrewBy counts elastic workers added (deadline growth + spot
	// replacements).
	GrewBy int
	// Revocations counts spot workers lost mid-job.
	Revocations int
	// Preemptions counts forced evictions this job suffered (each one
	// requeued it with queue position and progress credit preserved).
	Preemptions int
	Outcome     Outcome

	seq int
	// tref is the owning tenant, resolved once at Submit (AddTenant never
	// replaces a *Tenant) so hot paths (placement, completion, requeue)
	// reach it without a map lookup.
	tref    *Tenant
	handle  Handle
	charged float64 // core-seconds charged at dispatch (estimate)
	// estSecs is planEstimateSeconds for the dispatched plan: the
	// scheduler's runtime estimate, and SimBackend's runtime before overrun.
	estSecs    float64
	dispatched bool
	// Delivered-capacity integration: coresNow is the core count the job
	// holds right now; accrued is core-seconds banked at resize events
	// (grow/shrink/revocation), so Shares attributes elapsed time at the
	// size the job actually held, not its final size.
	coresNow int
	resizeAt sim.Time
	accrued  float64
	// deadlineGrown counts only deadline-chasing extras — the shrinkable
	// part of GrewBy (spot replacements restore the job's entitled size
	// and are kept; they are tracked in spotReplaced).
	deadlineGrown int
	spotReplaced  int
	shrunk        bool
	// creditFrac is the fraction of the job's original work already
	// executed before an eviction: a requeued victim's next dispatch
	// estimates, charges, and reserves only the remaining work.
	creditFrac float64
	// relocating guards one in-flight consolidation migration per job.
	relocating bool
	// blocked marks a queued stay whose block record is written: only
	// traced runs read it (see traceBlock).
	blocked bool
	// outageRequeuedAt stamps the instant an outage tore this job off a
	// failed cloud; the next dispatch observes the gap as its recovery time.
	// retryAt holds the job in the queue until a transient launch failure's
	// backoff lapses; launchRetries counts the transient launch failures
	// retried since the job last ran, and evict and requeueOn zero it.
	outageRequeuedAt sim.Time
	retryAt          sim.Time
	launchRetries    int
}

// coresPerWorker returns the normalised per-worker core count.
func (j *Job) coresPerWorker() int {
	if j.Spec.CoresPerWorker <= 0 {
		return 1
	}
	return j.Spec.CoresPerWorker
}

// workers returns the normalised worker count.
func (j *Job) workers() int {
	if j.Spec.Workers <= 0 {
		return 1
	}
	return j.Spec.Workers
}

// Cores returns the job's core demand (workers x cores each).
func (j *Job) Cores() int { return j.workers() * j.coresPerWorker() }

// estDuration returns the dispatch estimate as a virtual duration.
func (j *Job) estDuration() sim.Time { return sim.FromSeconds(j.estSecs) }

// resize banks the core-seconds accrued at the current size and applies a
// delta (elastic growth, shrink, or spot revocation) — the resize-event
// ledger behind Shares.
func (s *Scheduler) resize(j *Job, deltaCores int) {
	now := s.K.Now()
	j.accrued += float64(j.coresNow) * (now - j.resizeAt).Seconds()
	j.coresNow += deltaCores
	if j.coresNow < 0 {
		j.coresNow = 0
	}
	j.resizeAt = now
}

// runCoreSeconds returns the core-seconds the job has actually held up to
// now, accounting every resize at the instant it happened.
func (j *Job) runCoreSeconds(now sim.Time) float64 {
	if !j.dispatched {
		return 0
	}
	return j.accrued + float64(j.coresNow)*(now-j.resizeAt).Seconds()
}

// Wait returns how long the job queued: up to now while queued, up to the
// start for dispatched jobs, and up to the failure instant for jobs that
// died in the queue.
func (j *Job) Wait(now sim.Time) sim.Time {
	switch {
	case j.State == Queued:
		return now - j.Submitted
	case j.dispatched:
		return j.Started - j.Submitted
	default: // failed without ever starting
		return j.Finished - j.Submitted
	}
}

// estimate returns the speed-1 runtime estimate in seconds, excluding any
// input-streaming penalty (see planEstimateSeconds). A preempted job
// carries progress credit: only the uncredited remainder of the original
// work is estimated (and charged, and reserved) on its next dispatch.
func (j *Job) estimate() float64 {
	est := j.Spec.EstimateSeconds
	if est <= 0 {
		work := j.Spec.MR.SerialWork()
		if work <= 0 {
			work = 1
		}
		est = work / float64(j.Cores())
	}
	if j.creditFrac > 0 {
		est *= 1 - j.creditFrac
	}
	return est
}

// planEstimateSeconds is the plan-level cost model: base estimate at the
// slowest member's speed, plus WAN streaming of the input fraction no
// member holds, plus the cross-site shuffle bottleneck time — backfill
// reservations would otherwise systematically undershoot remote-input and
// spanning jobs' runtimes. The scheduler's dispatch estimates and backfill
// gate all come from it, and SimBackend runs a job for the estimate that
// dispatch records, so the synthetic backend's runtimes agree with the
// reservations made against them. Only static cloud attributes (name,
// speed) are read from the view, never the working free vector.
func planEstimateSeconds(b Backend, j *Job, plan Plan, v *CloudView) float64 {
	speed := 1.0
	for i, m := range plan.Members {
		if p := v.Pos(m.Cloud); p >= 0 && v.Clouds[p].Speed > 0 {
			if c := v.Clouds[p]; i == 0 || c.Speed < speed {
				speed = c.Speed
			}
		}
	}
	est := j.estimate() / speed
	// Input streaming: the fraction of input resident on no member crosses
	// the WAN through the thinnest input-site link among the members.
	if j.Spec.InputSite != "" && j.Spec.InputBytes > 0 {
		covered := 0.0
		for _, m := range plan.Members {
			covered += j.inputFraction(m.Cloud)
		}
		if covered > 1 {
			covered = 1
		}
		if uncovered := 1 - covered; uncovered > 0 {
			minBW := 0.0
			for _, m := range plan.Members {
				if m.Cloud == j.Spec.InputSite {
					continue
				}
				bw := b.Bandwidth(j.Spec.InputSite, m.Cloud)
				if bw <= 0 {
					continue
				}
				if minBW == 0 || bw < minBW {
					minBW = bw
				}
			}
			if minBW > 0 {
				est += uncovered * float64(j.Spec.InputBytes) / minBW
			}
		}
	}
	if plan.Spanning() {
		est += crossShuffleSeconds(b, j, plan.Members)
	}
	return est
}

// JobInfo is the poll-API view of a job.
type JobInfo struct {
	ID, Tenant, Name, Cloud string
	// Plan is the full gang placement (Cloud is its anchor).
	Plan        Plan
	State       State
	Submitted   sim.Time
	Started     sim.Time
	Finished    sim.Time
	Wait        sim.Time
	Backfilled  bool
	GrewBy      int
	Revocations int
	Preemptions int
	Result      mapreduce.Result
	Err         error
}

// CloudInfo is the backend's capacity snapshot for one cloud.
type CloudInfo struct {
	Name       string
	FreeCores  int
	TotalCores int
	Speed      float64
	Price      float64
}

// Backend executes scheduler decisions. core.Federation implements it for
// real federated execution; SimBackend for tests.
type Backend interface {
	Kernel() *sim.Kernel
	// Ledger exposes the backend's capacity ledger — the shared account of
	// committed cores, in-flight admissions, and future reservations. The
	// scheduler registers its backfill reservation here so the backend's
	// elastic-growth paths (which Probe the ledger) cannot race a reserved
	// gang start.
	Ledger() *capacity.Ledger
	// AppendClouds appends a snapshot of current capacity to dst and
	// returns it (free cores must account for in-flight provisioning the
	// backend has committed to). Taking the buffer lets the scheduler reuse
	// one snapshot slice across cycles instead of allocating per cycle.
	// Only cycles with queued work or a pending quarantine call it, plus an
	// eviction's mid-cycle re-snapshot.
	AppendClouds(dst []CloudInfo) []CloudInfo
	// Bandwidth returns the bottleneck inter-site bandwidth in bytes/sec
	// between two clouds (used by the placement score).
	Bandwidth(a, b string) float64
	// Launch provisions the job's workers per the plan (one virtual
	// cluster spanning every member cloud), runs the payload, releases the
	// workers, and reports the outcome. onDone receives the job back so
	// one callback value serves every launch (the scheduler passes the
	// same pre-bound function each time instead of allocating a per-job
	// closure). The returned handle drives elastic grow/shrink while the
	// job runs. A launch that fails transiently, whether Launch returns the
	// error or onDone reports it later, wraps ErrTransientLaunch; the
	// scheduler then retries it, so a backend keeps no launch retry of its
	// own.
	Launch(j *Job, plan Plan, onDone func(*Job, Outcome)) (Handle, error)
}

// Handle controls one running job's capacity.
type Handle interface {
	// Grow adds n on-demand workers (elastic growth or spot replacement).
	Grow(n int, onDone func(error))
	// Shrink releases up to n workers, returning how many were removed.
	Shrink(n int) int
	// Progress mirrors mapreduce.Cluster.Progress for the job.
	Progress() (mapsDone, mapsTotal, reducesDone, reducesTotal int)
	// Preemptible reports whether the job can be torn down right now (a
	// cluster still provisioning cannot free its cores synchronously).
	Preemptible() bool
	// Preempt tears the job's workers down immediately, without delivering
	// an Outcome, and returns the shield leases the ledger eviction minted
	// (Reserved at `at` for the beneficiary). The scheduler releases the
	// shields once the beneficiary has its capacity (preempt.go).
	Preempt(at sim.Time) []*capacity.Lease
	// Relocate moves `workers` of the job's workers from one member cloud
	// to another while the job keeps running, then calls onDone. On success
	// the backend has already moved its own capacity accounting; the
	// scheduler rewrites the job's plan when the callback reports nil
	// (relocate.go).
	Relocate(from, to string, workers int, onDone func(error))
}

// Fixed scheduler constants: the weights and bounds no caller tunes.
const (
	// localityWeight scores running at the cloud holding the job's input.
	localityWeight = 1.0
	// capacityWeight scores free-capacity headroom.
	capacityWeight = 0.25
	// bandwidthWeight scores the link from the input site for non-local
	// placements.
	bandwidthWeight = 0.5
	// refBandwidth normalises the bandwidth term (bw/(bw+ref)): 125 MB/s,
	// a GbE NIC.
	refBandwidth = 125 << 20
	// patternBoost multiplies the bandwidth term for tenants with a
	// detected communication-heavy pattern.
	patternBoost = 2.0
	// refShuffleSeconds normalises the shuffle penalty (secs/(secs+ref)).
	refShuffleSeconds = 30
	// elasticInterval is the elastic policy evaluation period.
	elasticInterval = 15 * sim.Second
	// deadlineMargin is slack subtracted from deadlines when deciding to
	// grow.
	deadlineMargin = 30 * sim.Second
	// preemptOverrunFactor is the elastic pass's forced-preempt bound: a
	// running backfilled job whose elapsed time exceeds factor x its
	// dispatch estimate while a reservation is waiting is evicted outright
	// (the voluntary shrink path only returns elastic extras; this one
	// reclaims the whole gang through the same eviction machinery). Only
	// active with EnablePreemption.
	preemptOverrunFactor = 2.0
	// maxPreemptions bounds how many times one job may be evicted, so
	// repeated preemption cannot starve a victim.
	maxPreemptions = 3
	// flapThreshold is how many failures within flapWindow mark a cloud as
	// flapping; its next restore is then quarantined.
	flapThreshold = 2
	// flapWindow is the failure-streak window for flap detection.
	flapWindow = 10 * sim.Minute
	// faultQuarantineBase is the first quarantine's nominal length; it
	// doubles per failure past the threshold.
	faultQuarantineBase = 60 * sim.Second
	// backoffCap caps every Backoff: quarantines and launch retries.
	backoffCap = 15 * sim.Minute
	// LaunchRetryBudget bounds how many times one job's transiently failed
	// launches (ErrTransientLaunch) are retried before the job fails, and
	// how many times a backend retries one transiently failed grow.
	LaunchRetryBudget = 3
	// RetryBackoffBase is the first launch retry's nominal delay; it
	// doubles per attempt.
	RetryBackoffBase = 5 * sim.Second
)

// Config tunes the scheduler.
type Config struct {
	// Placement policy; nil means BestScore (locality-aware).
	Placement PlacementPolicy
	// DisableShuffleCost drops the cross-site shuffle term from plan
	// scoring — the bandwidth-oblivious spanning baseline (E11).
	DisableShuffleCost bool
	// DisableBackfill falls back to strict FIFO-within-fair-share: nothing
	// may pass a blocked job.
	DisableBackfill bool
	// EnablePreemption makes placement revocable: when the blocked head
	// job's reservation has slipped ReservationMaxSlips consecutive times,
	// the cheapest set of backfilled jobs (priced by remaining work x the
	// victim tenant's share deficit) is evicted, requeued with queue
	// position and progress credit preserved, and the head starts on the
	// freed cores. Off by default: with it off every dispatch decision is
	// final, exactly the pre-preemption scheduler.
	EnablePreemption bool
	// ReservationMaxSlips is the reservation-aging bound: after N
	// consecutive recomputes each moved the reserved start later, the
	// reservation's ledger hold is dropped for a cycle (a misestimated gang
	// cannot shade elastic growth forever) and, with EnablePreemption, the
	// eviction pass fires. Zero means 3 when EnablePreemption is set and
	// disabled otherwise; negative disables aging outright.
	ReservationMaxSlips int
	// EnableConsolidation turns on the elastic consolidation pass: a
	// running spanning gang whose whole worker set fits on one of its
	// member clouds is live-migrated onto it (Handle.Relocate), cutting its
	// cross-site shuffle to zero. Off by default.
	EnableConsolidation bool
	// NaiveFaultMode is the E14 baseline: outage victims requeue with zero
	// progress credit and restored clouds are never quarantined, however
	// often they flap. Off by default (degraded-mode handling: credit
	// preserved, flappers quarantined).
	NaiveFaultMode bool
	// Obs is the metrics registry the scheduler's counters, gauges, and
	// phase histograms register in — a federation passes its shared registry
	// so every layer's families render from one /metrics endpoint. Nil
	// creates a private registry (the scheduler always runs instrumented;
	// read it back with Scheduler.Obs).
	Obs *obs.Registry
	// Trace records scheduler decisions (dispatch, reservation, the first
	// block of each queued stay, preemption with victim pricing,
	// consolidation) into the given tracer. Nil disables tracing.
	Trace *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Placement == nil {
		c.Placement = BestScore{}
	}
	return c
}

// maxSlips returns the effective reservation-aging bound (0 = aging off).
func (c Config) maxSlips() int {
	switch {
	case c.ReservationMaxSlips > 0:
		return c.ReservationMaxSlips
	case c.ReservationMaxSlips == 0 && c.EnablePreemption:
		return 3
	default:
		return 0
	}
}

// Scheduler is the federation-wide arbiter.
//
// Its state is indexed for incremental cycles: queued jobs sit in their
// tenants' queues, running jobs keep a submission-ordered list and a
// maintained sorted release list, setState keeps all three in step with
// each job's State, and per-cycle structures (cloud view, placement member
// buffers) reuse scheduler-owned scratch, so no cycle pays for jobs that
// already finished. Once the blocked head holds its reservation, a cycle
// pays one comparison for a tenant whose queue summary shows that no entry
// can fit (queueUnfit). In any other tenant's queue it pays the slot test
// and the backfill bound on each entry, which carries its job's shape and
// estimate (the fit table sums the free vector once per worker size after
// each dispatch rather than once per job), and a visit, the job's first
// load and placement, only for the entries that pass both.
type Scheduler struct {
	K   *sim.Kernel
	B   Backend
	cfg Config

	tenants    map[string]*Tenant
	tenantList []*Tenant // name-sorted; nextTenant scans this, not the map
	seq        int

	// jobs holds every job ever submitted at its sequence number less one,
	// nil for a rejected submission, so Poll and events find a job by
	// parsing its ID (see jobByID); no cycle walks it. running lists
	// running jobs in submission order (the elastic pass and Shares iterate
	// it instead of scanning history).
	jobs    []*Job
	running []*Job
	nQueued int

	// resv is the blocked head job's future claim, held as first-class
	// leases in the backend's capacity ledger between cycles (see
	// backfill.go). Every cycle recomputes it against current estimates.
	// prevResv is the previous cycle's claim, detached (leases still live)
	// at cycle start: when this cycle recomputes an identical claim,
	// holdReservation adopts the live leases instead of paying a ledger
	// release-and-re-reserve round trip per blocked cycle; anything not
	// adopted is released at cycle end.
	resv     *reservation
	prevResv *reservation

	// Reservation aging: agingJob/agingAt/agingSlips track how many
	// consecutive recomputes moved the same head job's reserved start later.
	// At Config.maxSlips the reservation's ledger hold is dropped for the
	// cycle and, with preemption on, the eviction pass fires (preempt.go).
	agingJob   string
	agingAt    sim.Time
	agingSlips int

	// shields are beneficiary reservations minted by ledger evictions
	// (capacity.Ledger.Evict) that outlive their cycle — the elastic
	// forced-preempt path holds them so a grow between cycles cannot take
	// the freed cores before the reserved head sees them. Released at the
	// next cycle start.
	shields []*capacity.Lease

	// releases is the maintained pending-release list: one entry per
	// running job's plan member, sorted by (eta, job sequence number).
	// setState inserts and removes a job's entries; reserve and
	// sumReleasesAt walk it in place (see backfill.go).
	releases []coreRelease

	// clouds is the cloud table, append-only in first-seen order: release
	// entries name their cloud by row, and each row keeps the cloud's
	// position in the last refreshed view (see refreshView).
	clouds []cloudRow

	// Per-cycle scratch, reused across cycles.
	view         CloudView
	whatIf       CloudView        // what-if copy of the view (reserve's walk, chooseVictims)
	evictCand    []evictCandidate // preemption victim-candidate scratch
	snapScratch  []CloudInfo
	runScratch   []*Job // elasticTick iteration copy
	relSumAtResv []int  // per-cloud release sum at resv.at (backfill)
	idBuf        []byte // Submit's job-ID formatting buffer
	jobArena     []Job  // current Job allocation chunk (see Submit)
	doneCB       func(*Job, Outcome)
	leaseSpare   []*capacity.Lease // retired reservation-lease backing array, reused by holdReservation

	// place is the placement scratch BestScore.Choose and growPlan score
	// candidate plans in.
	place placeScratch

	// memos is the plan memo table (see planMemo): one entry per recently
	// scored job shape, evicted round-robin, all invalidated at every cycle
	// start and whenever the working free vector moves. memoable gates it,
	// and the backfill bound, on placement-policy purity.
	memos    [planMemoSlots]planMemo
	memoNext int
	memoable bool

	// fit is the cycle's fit table (see fitTable), dropped with the memos.
	fit fitTable
	// tenantSkips counts the cycle's skips of a whole tenant queue behind a
	// held reservation (see cycle); no decision reads it.
	tenantSkips int

	// Fault state (faults.go), allocated lazily on the first fault event so
	// fault-free runs carry only nil pointers: downClouds tracks outages in
	// progress, quarUntil readmission quarantines, failStreak/lastFail the
	// per-cloud flap history. faultRNG is the jitter stream for quarantine
	// and retry backoff, seeded from the kernel RNG at first use — zero
	// kernel draws when faults never fire.
	downClouds map[string]bool
	quarUntil  map[string]sim.Time
	failStreak map[string]int
	lastFail   map[string]sim.Time
	faultRNG   *rand.Rand

	cyclePending  bool
	cycleFn       func() // s.cycle as a value, built once (kick is hot)
	kickFn        func() // s.kick as a value (fault paths schedule it)
	elasticOn     bool
	cancelElastic func()
	patternOf     map[string]string // tenant -> detected pattern

	// cycleNum is the kernel-thread-local cycle count (the tenant scan and
	// requeue machinery compare against it); the public view is the atomic
	// sky_sched_cycles_total counter behind Scheduler.Cycles.
	cycleNum int

	// m holds the registry instruments behind the stat accessor methods
	// (Cycles, Dispatched, …) — atomic counters, so examples and tests can
	// read them while the kernel runs in another goroutine. tr is the
	// optional decision tracer (see obs.go).
	m  schedMetrics
	tr *obs.Tracer
}

// New builds a scheduler over the backend. Call Start to enable the elastic
// policy loop; submission and dispatch work without it.
func New(b Backend, cfg Config) *Scheduler {
	s := &Scheduler{
		K:         b.Kernel(),
		B:         b,
		cfg:       cfg.withDefaults(),
		tenants:   make(map[string]*Tenant),
		patternOf: make(map[string]string),
		m:         newSchedMetrics(cfg.Obs),
		tr:        cfg.Trace,
	}
	s.cycleFn = s.cycle
	s.kickFn = s.kick
	// One completion callback for every launch: dispatch hands this to
	// Backend.Launch instead of closing over each job.
	s.doneCB = func(j *Job, out Outcome) { s.complete(j, out) }
	if cp, ok := s.cfg.Placement.(cacheablePolicy); ok && cp.PureChoose() {
		s.memoable = true
	}
	return s
}

// jobByID looks a job up by ID, whatever its state. An ID is "J" and the
// job's sequence number, which indexes s.jobs; anything else finds nothing.
func (s *Scheduler) jobByID(id string) *Job {
	if id == "" {
		return nil
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 1 || n > len(s.jobs) {
		return nil
	}
	if j := s.jobs[n-1]; j != nil && j.ID == id {
		return j
	}
	return nil
}

// Config returns the effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Start enables the elastic policy loop. The underlying ticker runs only
// while jobs are active, so an idle scheduler does not keep the simulation
// alive.
func (s *Scheduler) Start() {
	s.elasticOn = true
	s.ensureElastic()
}

// Stop disables the elastic loop.
func (s *Scheduler) Stop() {
	s.elasticOn = false
	if s.cancelElastic != nil {
		s.cancelElastic()
		s.cancelElastic = nil
	}
}

// ensureElastic arms the ticker when elastic is enabled and work exists.
func (s *Scheduler) ensureElastic() {
	if !s.elasticOn || s.cancelElastic != nil || !s.hasActiveJobs() {
		return
	}
	s.cancelElastic = s.K.Ticker(elasticInterval, func() {
		s.elasticTick()
		if !s.hasActiveJobs() {
			s.cancelElastic()
			s.cancelElastic = nil
		}
	})
}

// hasActiveJobs reports whether any job is queued or running — O(1) from
// the queue counter and the running list, no job scan.
func (s *Scheduler) hasActiveJobs() bool {
	return s.nQueued > 0 || len(s.running) > 0
}

// Submit queues a job and returns its ID. Unknown tenants are created with
// weight 1.
func (s *Scheduler) Submit(spec JobSpec) (string, error) {
	if spec.Tenant == "" {
		return "", fmt.Errorf("sched: job needs a tenant")
	}
	t := s.tenants[spec.Tenant]
	if t == nil {
		t = s.AddTenant(spec.Tenant, 1)
	}
	s.seq++
	s.idBuf = strconv.AppendInt(append(s.idBuf[:0], 'J'), int64(s.seq), 10)
	// Jobs are carved from an arena chunk: one allocation per 128 jobs
	// instead of one each. A chunk is never appended past its capacity, so
	// &chunk[i] stays stable for the job's lifetime. A new job is Queued,
	// the zero State.
	if len(s.jobArena) == cap(s.jobArena) {
		s.jobArena = make([]Job, 0, 128)
	}
	s.jobArena = append(s.jobArena, Job{
		ID:        string(s.idBuf),
		seq:       s.seq,
		tref:      t,
		Spec:      spec,
		Submitted: s.K.Now(),
	})
	j := &s.jobArena[len(s.jobArena)-1]
	if !spec.External() {
		if fits, have := s.fitsFederation(j); !fits {
			s.jobArena = s.jobArena[:len(s.jobArena)-1]
			s.jobs = append(s.jobs, nil)
			return "", fmt.Errorf("sched: job needs %d cores; the whole federation can gang at most %d", j.Cores(), have)
		}
	}
	s.jobs = append(s.jobs, j)
	s.enqueue(t, j)
	s.ensureElastic()
	s.kick()
	return j.ID, nil
}

// fitsFederation checks the job's demand against the federation-wide gang
// capacity: the slot sum of the clouds' total cores in the backend's ledger
// (a spanning plan can use them all). Jobs wider than any single cloud are
// accepted — under a single-cloud policy they simply stay queued.
func (s *Scheduler) fitsFederation(j *Job) (bool, int) {
	cpw := j.coresPerWorker()
	slots := 0
	s.B.Ledger().FreeTotals(func(_ string, _, total int) {
		if total > 0 {
			slots += total / cpw
		}
	})
	return slots >= j.workers(), slots * cpw
}

// Poll returns the current view of a job, whatever its state.
func (s *Scheduler) Poll(id string) (JobInfo, bool) {
	j := s.jobByID(id)
	if j == nil {
		return JobInfo{}, false
	}
	return JobInfo{
		ID: j.ID, Tenant: j.Spec.Tenant, Name: j.Spec.Name, Cloud: j.Cloud,
		Plan:  j.Plan,
		State: j.State, Submitted: j.Submitted, Started: j.Started,
		Finished: j.Finished, Wait: j.Wait(s.K.Now()),
		Backfilled: j.Backfilled, GrewBy: j.GrewBy, Revocations: j.Revocations,
		Preemptions: j.Preemptions,
		Result:      j.Outcome.Result, Err: j.Outcome.Err,
	}, true
}

// QueueLen returns the total number of queued jobs.
func (s *Scheduler) QueueLen() int { return s.nQueued }

// kick schedules one coalesced scheduling cycle at the current instant.
func (s *Scheduler) kick() {
	if s.cyclePending {
		return
	}
	s.cyclePending = true
	s.K.Schedule(0, s.cycleFn)
}

// cycle is the scheduling pass: serve tenants in fair-share order, place and
// dispatch what fits, reserve for the first blocked job, and backfill behind
// it. The reservation computed here outlives the cycle as ledger leases
// (holdReservation), so elastic growth probing the ledger between cycles
// cannot take the reserved cores; each cycle drops and recomputes it
// against fresh estimates.
//
// The pass runs over the per-cycle CloudView (one snapshot shared by every
// score, price, and estimate) and the maintained release list. A cycle with
// nothing queued and no quarantine pending takes no snapshot.
// Behind the reservation, a tenant whose queue summary shows that no entry
// can fit is skipped in one comparison (queueUnfit). In the other queues,
// entries whose gang fails the slot test, or that the backfill bound proves
// the gate would refuse (backfillDoomed), are stepped over without loading
// their jobs.
func (s *Scheduler) cycle() {
	s.cyclePending = false
	s.cycleNum++
	s.m.cycles.Inc()
	t0 := s.m.clock()
	var resvNanos, preemptNanos int64
	// Detach (not release) the previous cycle's reservation: when this
	// cycle recomputes an identical claim — the blocked steady state —
	// holdReservation adopts the live ledger leases instead of paying a
	// release-and-re-reserve round trip. Whatever is not adopted is
	// released at cycle end (post-cycle ledger state is identical either
	// way; reservations never block the holder's own acquire).
	s.prevResv, s.resv = s.resv, nil
	s.dropShields()
	v := &s.view
	if s.nQueued > 0 || len(s.quarUntil) > 0 {
		// With nothing queued nextTenant returns nil before anything reads
		// the view, but a lapsed quarantine still owes its readmission.
		s.refreshView(v)
	}
	traced := s.tr != nil
	var t *Tenant // the tenant being served; nil asks nextTenant for one
	for {
		// nextTenant's keys and candidates move only when a job dispatches,
		// fails or is evicted. Each of those sets t to nil; until then t
		// stays nextTenant's answer while it has unexamined jobs.
		if t == nil || t.scan >= len(t.queue) {
			if t = s.nextTenant(); t == nil {
				break
			}
		}
		if s.resv != nil {
			// Behind a held reservation a gang that fails the slot test
			// decides nothing (no plan fits, and the job is stepped over),
			// and neither does one the backfill bound refuses (backfillOK
			// would refuse whatever Choose returned), so step over both on
			// the queue entry alone. Before the reservation exists the
			// blocked head must still reach reserve below. Nothing
			// dispatches during the walk, so the last worker size's fit row
			// stays the fit table's answer.
			q, i := t.queue, t.scan
			if s.queueUnfit(t, v) {
				// No entry can pass the slot test: step over the rest of
				// the queue at once, recording what the walk would.
				for ; traced && i < len(q); i++ {
					s.traceBlock(t, q[i].job)
				}
				t.scan = len(q)
				s.tenantSkips++
				continue
			}
			var fr fitRow
			for ; i < len(q); i++ {
				e := &q[i]
				if int(e.cpw) != fr.cpw {
					fr = s.fitRow(v, int(e.cpw))
				}
				if int(e.w) > fr.slots {
					if traced {
						s.traceBlock(t, e.job)
					}
					continue
				}
				if !s.memoable || !s.backfillDoomed(int(e.w), e.est, fr) {
					break
				}
			}
			if t.scan = i; i == len(q) {
				continue
			}
		}
		e := &t.queue[t.scan]
		j := e.job
		if j.retryAt > s.K.Now() {
			// Transient-launch backoff in progress: leave the job queued (a
			// kick is already scheduled for when the backoff lapses) and let
			// the queue behind it proceed.
			t.scan++
			continue
		}
		if j.Spec.External() {
			s.dispatch(t, j, Plan{}, false, v)
			t = nil
			continue
		}
		var plan Plan
		if s.fitRow(v, int(e.cpw)).slots >= int(e.w) {
			plan = s.choosePlan(j, v)
		}
		if plan.Empty() && traced {
			s.traceBlock(t, j)
		}
		if !plan.Empty() {
			if s.resv != nil && !s.backfillOK(j, plan, s.resv, v) {
				t.scan++
				continue
			}
			s.dispatch(t, j, plan, s.resv != nil, v)
			t = nil
			continue
		}
		if s.resv == nil {
			tr0 := s.m.clock()
			r, ok := s.reserve(j, v)
			resvNanos += s.m.clock() - tr0
			if !ok {
				if fits, _ := s.fitsFederation(j); !fits {
					// Even with every running job drained the demand never
					// fits (capacity shrank since submit) — fail it.
					s.finish(t, j, Outcome{Err: fmt.Errorf("sched: no plan can ever fit %d cores", j.Cores())})
					t = nil
					continue
				}
				// The federation could host the gang but the policy will
				// never place it (e.g. a single-cloud policy facing a
				// wider-than-any-cloud job): leave it queued without
				// blocking the jobs behind it.
				t.scan++
				continue
			}
			aged := s.trackSlips(&r)
			evicted := false
			if aged && s.cfg.EnablePreemption {
				tp0 := s.m.clock()
				out := s.preemptFor(t, j, v)
				preemptNanos += s.m.clock() - tp0
				switch out {
				case preemptDispatched:
					// The head dispatched on evicted cores and the view was
					// re-snapshotted. Serve the next tenant.
					t = nil
					continue
				case preemptEvictedOnly:
					// Victims are gone but the head still has no plan: the
					// reservation computed above walked their phantom release
					// entries, which the requeues removed. Recompute it
					// against the post-eviction state.
					tr0 = s.m.clock()
					if r2, ok2 := s.reserve(j, v); ok2 {
						r = r2
					}
					resvNanos += s.m.clock() - tr0
					evicted = true
				}
			}
			// An aged reservation is held for backfill gating but without
			// its ledger leases this cycle — the drop-and-refail step that
			// stops a misestimated gang from shading elastic growth forever.
			s.holdReservation(&r, j.coresPerWorker(), !aged)
			s.sumReleasesAt(v, r.at)
			s.holdFit(v)
			if s.tr != nil {
				s.trace(obs.TraceEvent{Kind: "reserve", Tenant: t.Name, Job: j.ID,
					Workers: j.workers(), Cores: j.Cores(),
					Start: int64(r.at), Plan: r.plan.String()})
			}
			if s.cfg.DisableBackfill {
				break
			}
			if evicted {
				// The requeues trued up the victims' tenants, moving their
				// keys: the next job comes from a fresh pick.
				t.scan++
				t = nil
				continue
			}
		}
		t.scan++
	}
	s.releasePrevResv()
	s.m.observePhases(s.m.clock()-t0, resvNanos, preemptNanos)
}

// releasePrevResv releases a detached previous-cycle reservation that no
// holdReservation adopted this cycle (the head dispatched, changed, or
// moved its claim).
func (s *Scheduler) releasePrevResv() {
	if s.prevResv == nil {
		return
	}
	for _, le := range s.prevResv.leases {
		le.Release()
	}
	s.reclaimLeaseBuf(s.prevResv.leases)
	s.prevResv = nil
}

// dropShields releases eviction shields carried over from the previous
// cycle (the forced-preempt path mints them; the freed cores are now
// visible in this cycle's snapshot, so the reserved head can claim them).
func (s *Scheduler) dropShields() {
	for _, le := range s.shields {
		le.Release()
	}
	s.shields = s.shields[:0]
}

// cloudRow is one row of the scheduler's cloud table.
type cloudRow struct {
	name string
	// pos is the cloud's position in the last refreshed view, -1 while
	// that view does not hold it.
	pos int32
}

// cloudIdx returns the cloud's row in the cloud table, appending one on
// first sight. pos is tried first: rows follow first-seen order, which is
// view order while the federation keeps its shape (-1 when the caller has
// no guess).
func (s *Scheduler) cloudIdx(name string, pos int) int32 {
	if pos >= 0 && pos < len(s.clouds) && s.clouds[pos].name == name {
		return int32(pos)
	}
	for i := range s.clouds {
		if s.clouds[i].name == name {
			return int32(i)
		}
	}
	s.clouds = append(s.clouds, cloudRow{name: name, pos: -1})
	return int32(len(s.clouds) - 1)
}

// refreshView points the view at a fresh backend snapshot, with
// quarantined clouds hidden, and clears the plan memos (their view is
// gone). It serves the cycle start and an eviction's mid-cycle re-snapshot
// alike, and records each cloud-table row's position in the new view, so
// release entries find their view slot without a name lookup (addRelease).
func (s *Scheduler) refreshView(v *CloudView) {
	snap := s.B.AppendClouds(s.snapScratch[:0])
	s.snapScratch = snap
	if len(s.quarUntil) > 0 {
		// Readmit lapsed quarantines, hide the rest. Free when no cloud is
		// quarantined (nil-map len check).
		snap = s.pruneQuarantine(snap)
	}
	v.Reset(snap)
	s.invalidateMemos()
	for i := range s.clouds {
		s.clouds[i].pos = -1
	}
	for i, c := range v.Clouds {
		s.clouds[s.cloudIdx(c.Name, i)].pos = int32(i)
	}
}

// traceBlock records that the queued job was found unplaceable, once per
// queued stay: the first visit or step-over that finds it so, outside any
// launch backoff. Later checks in the same stay leave no record.
func (s *Scheduler) traceBlock(t *Tenant, j *Job) {
	if j.blocked || j.retryAt > s.K.Now() {
		return
	}
	j.blocked = true
	s.trace(obs.TraceEvent{Kind: "block", Tenant: t.Name, Job: j.ID,
		Workers: j.workers(), Cores: j.Cores()})
}

// dispatch starts a placed job. An external job starts through its Run
// callback on capacity the caller owns; any other takes its plan's cores
// from the cycle's working view and launches through the backend. Only a
// launch whose Launch call returns no error counts as a dispatch (and as a
// backfill or spanning dispatch): a failed one goes to complete, which
// requeues it for a retry or fails the job. A backend that reports deploy
// failures later, through onDone, counts once per attempt.
func (s *Scheduler) dispatch(t *Tenant, j *Job, plan Plan, backfilled bool, v *CloudView) {
	now := s.K.Now()
	est := planEstimateSeconds(s.B, j, plan, v)
	j.Plan = plan
	j.Cloud = plan.Primary()
	j.Started = now
	j.dispatched = true
	j.Backfilled = backfilled
	j.estSecs = est
	j.coresNow = j.Cores()
	j.resizeAt = now
	s.charge(t, j, est)
	if s.tr != nil {
		ev := obs.TraceEvent{Kind: "dispatch", Tenant: t.Name, Job: j.ID,
			Cloud: j.Cloud, Workers: j.workers(), Cores: j.Cores()}
		if backfilled {
			ev.Kind = "dispatch_backfill"
		}
		if !plan.Empty() {
			ev.Plan = plan.String()
		}
		s.trace(ev)
	}
	s.setState(t, j, Running)
	if j.Spec.External() {
		// The caller's capacity runs it: no view take, no launch.
		run := j.Spec.Run
		s.K.Schedule(0, func() { run(func(err error) { s.complete(j, Outcome{Err: err}) }) })
		s.m.dispatched.Inc()
		return
	}
	cpw := j.coresPerWorker()
	for _, m := range plan.Members {
		v.take(m.Cloud, m.Workers*cpw)
	}
	s.invalidateMemos() // the working free vector moved
	h, err := s.B.Launch(j, plan, s.doneCB)
	if err != nil {
		s.complete(j, Outcome{Err: err})
		return
	}
	j.handle = h
	s.m.dispatched.Inc()
	if backfilled {
		s.m.backfills.Inc()
	}
	if plan.Spanning() {
		s.m.spanningDispatched.Inc()
	}
	if j.outageRequeuedAt > 0 {
		// The gang an outage tore down is running again: the gap is the
		// scheduler's recovery time for this job.
		s.m.recoverySeconds.Observe((now - j.outageRequeuedAt).Seconds())
		j.outageRequeuedAt = 0
	}
}

// setState moves j to state `to` and keeps every structure that mirrors
// the state in step; it is the only code that writes Job.State. Leaving
// Queued pops the job from its tenant queue at the cycle's scan position;
// leaving Running trues up the tenant's usage and drops the job's
// running-list and release-list entries. Entering Queued re-inserts the job
// in submission order; entering Running adds both entries, so callers set
// the plan, start and estimate first; Done and Failed count the outcome.
func (s *Scheduler) setState(t *Tenant, j *Job, to State) {
	switch j.State {
	case Queued:
		s.popQueued(t, j)
	case Running:
		s.trueUp(t, j, s.K.Now())
		s.removeReleases(j)
		s.dropRunning(j)
	}
	j.State = to
	switch to {
	case Queued:
		s.enqueue(t, j)
	case Running:
		s.addRunning(j)
		s.insertReleases(j)
	case Done:
		s.m.completed.Inc()
	case Failed:
		s.m.failures.Inc()
	}
}

// enqueue inserts j into its tenant's queue in submission order: a new job
// goes at the tail, and a requeued one re-enters ahead of everything
// submitted after it, starting a new queued stay. The entry records the
// job's shape and estimate, and the tenant's queue summary takes its
// demand; popQueued, the queue's only other writer, removes it. A requeue
// inside a cycle keeps the tenant's scan position on the same
// next-unexamined entry; Submit runs between cycles, and the next cycle
// resets the position before reading it.
func (s *Scheduler) enqueue(t *Tenant, j *Job) {
	i := sort.Search(len(t.queue), func(k int) bool { return t.queue[k].job.seq > j.seq })
	t.queue = append(t.queue, queueEntry{})
	copy(t.queue[i+1:], t.queue[i:])
	// Submit bounds a gang's shape by the federation's cores. An external
	// job's spec is never checked, and it takes no capacity, so its entry
	// gets a fixed shape that passes every slot test.
	e := queueEntry{job: j, w: 0, cpw: 1, est: j.estimate()}
	if !j.Spec.External() {
		e.w, e.cpw = int32(j.workers()), int32(j.coresPerWorker())
	}
	t.queue[i] = e
	if !t.minStale {
		t.noteDemand(e.demand())
	}
	j.blocked = false
	if t.scanCycle == s.cycleNum && i <= t.scan {
		t.scan++
	}
	s.nQueued++
	s.m.queuedJobs.SetInt(int64(s.nQueued))
}

// popQueued removes j (at the tenant's scan position) from the queue.
func (s *Scheduler) popQueued(t *Tenant, j *Job) {
	i := t.scan
	if i >= len(t.queue) || t.queue[i].job != j {
		panic("sched: queue index out of sync")
	}
	d := t.queue[i].demand()
	t.queue = append(t.queue[:i], t.queue[i+1:]...)
	t.dropDemand(d)
	s.nQueued--
	s.m.queuedJobs.SetInt(int64(s.nQueued))
}

// addRunning inserts the job into the submission-ordered running list.
// Dispatch order is not submission order (backfill), so insert sorted.
func (s *Scheduler) addRunning(j *Job) {
	i := sort.Search(len(s.running), func(k int) bool { return s.running[k].seq > j.seq })
	s.running = append(s.running, nil)
	copy(s.running[i+1:], s.running[i:])
	s.running[i] = j
	s.m.runningJobs.SetInt(int64(len(s.running)))
}

// dropRunning removes the job from the running list.
func (s *Scheduler) dropRunning(j *Job) {
	i := sort.Search(len(s.running), func(k int) bool { return s.running[k].seq >= j.seq })
	if i < len(s.running) && s.running[i] == j {
		copy(s.running[i:], s.running[i+1:])
		s.running = s.running[:len(s.running)-1]
		s.m.runningJobs.SetInt(int64(len(s.running)))
	}
}

// complete is the backend's completion callback: it finishes a running job
// and triggers the next cycle for the freed capacity. A transient launch
// failure goes to retryLaunch instead while the job's retry budget lasts.
// A report for a job that is no longer running is ignored.
func (s *Scheduler) complete(j *Job, out Outcome) {
	if j.State != Running {
		return
	}
	if errors.Is(out.Err, ErrTransientLaunch) && j.launchRetries < LaunchRetryBudget {
		s.retryLaunch(j)
		return
	}
	s.finish(j.tref, j, out)
	s.kick()
}

// retryLaunch requeues a job whose launch failed transiently (undoing its
// dispatch's charge and release entries) and holds it behind a jittered
// backoff. The next attempt re-places from scratch, so a cloud still
// dropping deploys can lose the job to an alternate candidate.
func (s *Scheduler) retryLaunch(j *Job) {
	j.launchRetries++
	s.m.launchRetries.Inc()
	d := Backoff(RetryBackoffBase, j.launchRetries-1, s.faultRand())
	if s.tr != nil {
		s.trace(obs.TraceEvent{Kind: "requeue", Tenant: j.Spec.Tenant, Job: j.ID,
			Cloud: j.Cloud, Workers: j.workers(), Cores: j.Cores(),
			Start: int64(s.K.Now() + d)})
	}
	s.requeue(j, 0)
	j.retryAt = s.K.Now() + d
	s.K.Schedule(d, s.kickFn)
}

// finish ends a queued or running job with its outcome: Failed when the
// outcome carries an error, Done otherwise.
func (s *Scheduler) finish(t *Tenant, j *Job, out Outcome) {
	j.Finished = s.K.Now()
	j.Outcome = out
	j.handle = nil
	to := Done
	if out.Err != nil {
		to = Failed
	}
	s.setState(t, j, to)
}
