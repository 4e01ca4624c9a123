package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/capacity"
	"repro/internal/emr"
	"repro/internal/mapreduce"
	"repro/internal/migration"
	"repro/internal/netmon"
	"repro/internal/nimbus"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vm"
)

// This file wires the federation-wide job scheduler (internal/sched) into
// the federation: each dispatched job gets its own virtual cluster on the
// chosen cloud, elastic grow/shrink goes through the cluster layer, spot
// revocations are routed back to the scheduler as events, and emr deadline
// jobs can be gated through the scheduler's fair-share queues instead of
// launching directly.

// SchedulerOptions configures EnableScheduler.
type SchedulerOptions struct {
	// Image is the base image for job workers; it must be in every member
	// cloud's store. Empty means "debian".
	Image string
	// MemPagesPerWorker sizes worker VMs. Zero means 8192 (32 MiB), which
	// keeps simulations fast.
	MemPagesPerWorker int
	// Sched tunes the scheduler itself.
	Sched sched.Config
}

// fedBackend implements sched.Backend over the federation. It keeps no
// capacity arithmetic of its own: nimbus admits deployments synchronously
// against the federation-wide ledger (cores held from the instant Launch
// calls Deploy), and the scheduler's backfill reservations live in the same
// ledger, so there is no dispatch-to-placement window to paper over.
type fedBackend struct {
	f   *Federation
	s   *sched.Scheduler
	opt SchedulerOptions

	// owner maps live worker VM names to their scheduler job, for spot
	// revocation dispatch and traffic attribution.
	owner map[string]*launchedJob

	// retryRNG jitters grow retry backoff; seeded lazily from the kernel RNG
	// on the first transient grow failure, so fault-free runs never perturb
	// the kernel stream.
	retryRNG *rand.Rand
}

// launchedJob tracks one dispatched job's execution state.
type launchedJob struct {
	id     string
	tenant string
	// plan is the gang placement: one spanning virtual cluster whose
	// workers are distributed over the member clouds and contextualize
	// over the ViNe overlay.
	plan sched.Plan
	cpw  int
	vc   *VirtualCluster
	// extras lists the clouds hosting elastically grown workers, one entry
	// per worker in grow order; Shrink releases from the end.
	extras []string
	// preempted marks a job torn down by the scheduler's eviction pass: its
	// cluster is gone and any straggling completion must be dropped.
	preempted bool
	// relocations counts in-flight worker migrations; while nonzero the job
	// is not preemptible (the VMs' ledger cores are already retargeted to
	// the destination while CloudOf still answers the source — an eviction
	// in that window would split the accounting across two clouds).
	relocations int
}

// EnableScheduler creates the federation-wide job scheduler and starts its
// elastic policy loop. Submit jobs with Scheduler().Submit and track them
// with Scheduler().Poll.
func (f *Federation) EnableScheduler(opt SchedulerOptions) *sched.Scheduler {
	if f.sched != nil {
		return f.sched
	}
	if opt.Image == "" {
		opt.Image = "debian"
	}
	if opt.MemPagesPerWorker <= 0 {
		opt.MemPagesPerWorker = 8192
	}
	if opt.Sched.Obs == nil {
		opt.Sched.Obs = f.Obs
	}
	b := &fedBackend{
		f:     f,
		opt:   opt,
		owner: make(map[string]*launchedJob),
	}
	f.sched = sched.New(b, opt.Sched)
	f.schedBackend = b
	b.s = f.sched
	f.sched.Start()
	return f.sched
}

// Scheduler returns the federation scheduler (nil before EnableScheduler).
func (f *Federation) Scheduler() *sched.Scheduler { return f.sched }

// Kernel implements sched.Backend.
func (b *fedBackend) Kernel() *sim.Kernel { return b.f.K }

// Ledger implements sched.Backend: the federation-wide capacity ledger.
func (b *fedBackend) Ledger() *capacity.Ledger { return b.f.ledger }

// AppendClouds implements sched.Backend: live capacity straight from the
// ledger (nimbus holds cores from deploy admission, so in-flight
// provisioning is already accounted).
func (b *fedBackend) AppendClouds(dst []sched.CloudInfo) []sched.CloudInfo {
	for _, c := range b.f.Clouds() {
		dst = append(dst, sched.CloudInfo{
			Name:       c.Name,
			FreeCores:  c.FreeCores(),
			TotalCores: c.TotalCores(),
			Speed:      c.HostSpeed(),
			Price:      b.f.PriceOf(c.Name),
		})
	}
	return dst
}

// Bandwidth implements sched.Backend: the bottleneck of source uplink and
// destination downlink, straight from the simnet topology.
func (b *fedBackend) Bandwidth(a, c string) float64 {
	sa, sc := b.f.Net.Site(a), b.f.Net.Site(c)
	if sa == nil || sc == nil {
		return 0
	}
	if sa.Up.Capacity < sc.Down.Capacity {
		return sa.Up.Capacity
	}
	return sc.Down.Capacity
}

// fedHandle implements sched.Handle over the job's virtual cluster.
type fedHandle struct {
	b  *fedBackend
	lj *launchedJob
}

// Grow implements sched.Handle: on-demand workers (firm capacity — this is
// the spot-replacement and deadline-chasing path). Targets come from the
// ledger's shared grow policy via planGrow: member clouds in plan order
// first, then the non-member with the most reservation-aware headroom,
// every candidate Probe-vetted — so growth is denied cores an outstanding
// backfill reservation will need, even when they are free right now.
// All-or-nothing, matching SimHandle.Grow: when a multi-cloud grow partially
// fails, exactly the workers that did deploy are terminated (busy base
// workers are untouched) before the error is reported — the scheduler rolls
// its GrewBy credit back on error, so a kept worker would be one it never
// accounts for (or shrinks).
func (h *fedHandle) Grow(n int, onDone func(error)) {
	h.growAttempt(n, 0, onDone)
}

// growAttempt runs one all-or-nothing grow pass. A transient deploy fault
// rolls the pass back (exactly the workers that did deploy are terminated)
// and schedules a fresh attempt after a jittered backoff — planGrow re-runs
// then, so a cloud that lost capacity or failed during the wait drops out
// of the retried allocation. Attempts are bounded by
// sched.LaunchRetryBudget; non-transient errors and exhausted bounds
// report to onDone as before, and the scheduler rolls its GrewBy credit
// back.
func (h *fedHandle) growAttempt(n, attempt int, onDone func(error)) {
	if h.lj.vc == nil {
		if onDone != nil {
			h.b.f.K.Schedule(0, func() { onDone(fmt.Errorf("core: job cluster not up yet")) })
		}
		return
	}
	alloc, ok := h.planGrow(n)
	if !ok {
		if onDone != nil {
			h.b.f.K.Schedule(0, func() { onDone(fmt.Errorf("core: no clouds can host %d more workers", n)) })
		}
		return
	}
	clouds := make([]string, 0, len(alloc))
	for c := range alloc {
		clouds = append(clouds, c)
	}
	sort.Strings(clouds)
	pending := len(clouds)
	var firstErr error
	var addedVMs, addedClouds []string
	for _, cloud := range clouds {
		cloud, cnt := cloud, alloc[cloud]
		h.lj.vc.grow(cloud, cnt, false, 0, func(vms []string, err error) {
			if err == nil {
				addedVMs = append(addedVMs, vms...)
				for range vms {
					addedClouds = append(addedClouds, cloud)
				}
			} else if firstErr == nil {
				firstErr = err
			}
			pending--
			if pending > 0 {
				return
			}
			if firstErr != nil {
				for _, name := range addedVMs {
					h.lj.vc.removeWorker(name)
				}
				if errors.Is(firstErr, nimbus.ErrTransientDeploy) && attempt < h.b.retryBudget() && !h.lj.preempted {
					h.b.f.m.launchRetries.Inc()
					err := firstErr
					h.b.f.K.Schedule(h.b.retryDelay(attempt+1), func() {
						if h.lj.preempted || h.lj.vc == nil {
							if onDone != nil {
								onDone(err)
							}
							return
						}
						h.growAttempt(n, attempt+1, onDone)
					})
					return
				}
			} else {
				h.lj.extras = append(h.lj.extras, addedClouds...)
				h.b.adopt(h.lj)
			}
			if onDone != nil {
				onDone(firstErr)
			}
		})
	}
}

// planGrow assigns n extra workers to clouds, worker by worker through the
// ledger's shared grow-target policy: plan members in order first, then
// the non-member with the most reservation-aware headroom — so a
// multi-worker grow can spread across clouds instead of demanding one
// cloud fit it all, and is denied cores an outstanding backfill
// reservation will need at its future start (growth can no longer race a
// reserved gang start). ok is false when the federation cannot host all n.
func (h *fedHandle) planGrow(n int) (map[string]int, bool) {
	l := h.b.f.ledger
	now := h.b.f.K.Now()
	names := make([]string, 0, len(h.b.f.clouds))
	for _, c := range h.b.f.Clouds() { // sorted by name
		names = append(names, c.Name)
	}
	members, spill := h.lj.plan.GrowCandidates(names)
	cores := make(map[string]int, 1)
	alloc := make(map[string]int, 1)
	for i := 0; i < n; i++ {
		cloud := l.PickGrowTarget(members, spill, h.lj.cpw, now, cores)
		if cloud == "" {
			return nil, false
		}
		cores[cloud] += h.lj.cpw
		alloc[cloud]++
	}
	return alloc, true
}

// Shrink implements sched.Handle: elastic extras come back newest-first.
func (h *fedHandle) Shrink(n int) int {
	if h.lj.vc == nil {
		return 0
	}
	removed := 0
	for removed < n && len(h.lj.extras) > 0 {
		cloud := h.lj.extras[len(h.lj.extras)-1]
		if h.lj.vc.Shrink(cloud, 1) == 0 {
			break
		}
		h.lj.extras = h.lj.extras[:len(h.lj.extras)-1]
		removed++
	}
	return removed
}

// Progress implements sched.Handle.
func (h *fedHandle) Progress() (int, int, int, int) {
	if h.lj.vc == nil {
		return 0, 0, 0, 0
	}
	return h.lj.vc.MapReduce().Progress()
}

// Preemptible implements sched.Handle: a job whose cluster is still
// provisioning cannot free its cores synchronously, and one with a worker
// migration in flight has its capacity split across clouds — neither is a
// victim candidate.
func (h *fedHandle) Preemptible() bool {
	return h.lj.vc != nil && !h.lj.preempted && h.lj.relocations == 0
}

// Preempt implements sched.Handle: the gang's committed cores convert
// per cloud into beneficiary shield reservations through the ledger's
// atomic eviction transition, then the worker VMs tear down through the
// ledger-skipping release (their ledger side already moved). No Outcome is
// delivered — the scheduler requeues the job.
func (h *fedHandle) Preempt(at sim.Time) []*capacity.Lease {
	lj := h.lj
	if lj.vc == nil || lj.preempted {
		return nil
	}
	lj.preempted = true
	f := h.b.f
	byCloud := make(map[string]int)
	vms := lj.vc.VMs()
	for _, v := range vms {
		if c := f.CloudOf(v.Name); c != nil {
			byCloud[c.Name] += v.Cores
		}
	}
	clouds := make([]string, 0, len(byCloud))
	for c := range byCloud {
		clouds = append(clouds, c)
	}
	sort.Strings(clouds)
	var shields []*capacity.Lease
	for _, cloud := range clouds {
		if sh, err := f.ledger.EvictCommitted(cloud, byCloud[cloud], at); err == nil {
			shields = append(shields, sh)
		}
	}
	h.b.release(lj)
	lj.vc.evictAll()
	return shields
}

// Relocate implements sched.Handle: `workers` of the job's workers on
// `from` live-migrate to `to`, with the secure handshake, the atomic
// committed-core retarget, overlay reconfiguration, and MapReduce
// rebinding per VM; the backend's own plan copy and extras bookkeeping
// follow on success.
func (h *fedHandle) Relocate(from, to string, workers int, onDone func(error)) {
	lj := h.lj
	if lj.vc == nil {
		h.b.f.K.Schedule(0, func() { onDone(fmt.Errorf("core: job cluster not up yet")) })
		return
	}
	names := lj.vc.VMsAt(from)
	if len(names) < workers {
		h.b.f.K.Schedule(0, func() {
			onDone(fmt.Errorf("core: job has %d workers on %s, relocate wants %d", len(names), from, workers))
		})
		return
	}
	// notify=false: the scheduler initiated this move and rewrites the
	// job's plan in its own completion callback.
	h.b.relocateWorkers(lj, from, to, names[:workers], false, onDone)
}

// relocateWorkers migrates the named worker VMs of one scheduler job and
// reconciles every record that tracks where the gang lives: the launched
// job's plan copy, its extras list, the owner map, and the scheduler's
// plan and release entries via JobRelocated. A partially failed batch is
// reconciled for exactly the workers that DID move (their ledger cores and
// MapReduce bindings are already at the destination) — the error still
// propagates, but no record is left describing the old placement. The
// scheduler is notified for backend-initiated moves (notify, e.g.
// autonomic Actions) and for partial scheduler-initiated ones (whose own
// completion callback skips the plan rewrite on error).
func (b *fedBackend) relocateWorkers(lj *launchedJob, from, to string, names []string, notify bool, onDone func(error)) {
	lj.relocations++
	lj.vc.MigrateWorkers(names, to, 2, func(rs []migration.Result, err error) {
		lj.relocations--
		// MigrateSet reports one Result per VM that completed the move.
		if moved := len(rs); moved > 0 && !lj.preempted {
			// Base-plan workers move the plan; any remainder must have been
			// elastic extras, whose cloud labels follow instead.
			baseMoved := lj.plan.WorkersOn(from)
			if baseMoved > moved {
				baseMoved = moved
			}
			lj.plan = lj.plan.MoveWorkers(from, to, baseMoved)
			for n := moved - baseMoved; n > 0; n-- {
				for k, c := range lj.extras {
					if c == from {
						lj.extras[k] = to
						break
					}
				}
			}
			b.adopt(lj)
			if baseMoved > 0 && (notify || err != nil) {
				b.s.JobRelocated(lj.id, from, to, baseMoved)
			}
		}
		if onDone != nil {
			onDone(err)
		}
	})
}

// adopt (re)registers every live VM of the job as owned, so revocations and
// traffic attribution find it.
func (b *fedBackend) adopt(lj *launchedJob) {
	for _, v := range lj.vc.VMs() {
		b.owner[v.Name] = lj
	}
}

// release drops ownership of the job's VMs.
func (b *fedBackend) release(lj *launchedJob) {
	for name, o := range b.owner {
		if o == lj {
			delete(b.owner, name)
		}
	}
}

// Launch implements sched.Backend: provision one per-job virtual cluster
// spanning every plan member (the gang contextualizes over the ViNe
// overlay), run the MapReduce payload (streaming input from the job's data
// site when non-local), then tear the cluster down. Capacity needs no
// shepherding here: nimbus admits each member deployment synchronously
// against the federation ledger, so the cores are held from this call
// onward.
//
// Deploy failures surface asynchronously, through CreateCluster's callback,
// which tears a partial gang down before reporting. A transient one reaches
// onDone wrapped in sched.ErrTransientLaunch, so the scheduler requeues and
// re-places the job behind a backoff, within sched.LaunchRetryBudget, as
// for any backend's transient launch failure.
func (b *fedBackend) Launch(j *sched.Job, plan sched.Plan, onDone func(*sched.Job, sched.Outcome)) (sched.Handle, error) {
	cores := j.Spec.CoresPerWorker
	if cores <= 0 {
		cores = 1
	}
	lj := &launchedJob{id: j.ID, tenant: j.Spec.Tenant, plan: plan, cpw: cores}
	dist := make(map[string]int, len(plan.Members))
	for _, m := range plan.Members {
		dist[m.Cloud] = m.Workers
	}
	b.f.CreateCluster("sched-"+j.ID, ClusterSpec{
		Image:        b.opt.Image,
		Cores:        cores,
		MemPages:     b.opt.MemPagesPerWorker,
		CoW:          true,
		Spot:         j.Spec.Spot,
		Bid:          j.Spec.Bid,
		Distribution: dist,
	}, func(vc *VirtualCluster, err error) {
		if err != nil {
			if errors.Is(err, nimbus.ErrTransientDeploy) {
				err = fmt.Errorf("%w: %w", sched.ErrTransientLaunch, err)
			}
			onDone(j, sched.Outcome{Err: err})
			return
		}
		lj.vc = vc
		b.adopt(lj)
		mr := j.Spec.MR
		if mr.Splits == nil && j.Spec.InputSite != "" && j.Spec.InputBytes > 0 && mr.NumMaps > 0 {
			mr.Splits = b.inputSplits(j.Spec.InputSite, mr.NumMaps, j.Spec.InputBytes)
		}
		finish := func(out sched.Outcome) {
			b.release(lj)
			vc.Terminate()
			onDone(j, out)
		}
		if err := vc.RunJob(mr, func(res mapreduce.Result) {
			finish(sched.Outcome{Result: res})
		}); err != nil {
			finish(sched.Outcome{Err: err})
		}
	})
	return &fedHandle{b: b, lj: lj}, nil
}

// retryBudget is the bounded retry count for transient grow faults; zero
// when no scheduler is attached (direct cluster tests drive the backend
// without one), so the retry path stays dormant there.
func (b *fedBackend) retryBudget() int {
	if b.s == nil {
		return 0
	}
	return sched.LaunchRetryBudget
}

// retryDelay is the jittered exponential backoff before grow attempt
// `attempt` (1-based): sched.Backoff from sched.RetryBackoffBase, doubled
// per prior attempt. The jitter draws from the backend's own lazily seeded
// RNG, never the scheduler's.
func (b *fedBackend) retryDelay(attempt int) sim.Time {
	if b.retryRNG == nil {
		b.retryRNG = rand.New(rand.NewSource(b.f.K.Rand().Int63()))
	}
	return sched.Backoff(sched.RetryBackoffBase, attempt-1, b.retryRNG)
}

// inputSplits binds each map task to the data-holding cloud's repository
// node: site-local runs stream over the LAN, remote runs over the WAN —
// the HDFS-locality signal the placement score optimises for.
func (b *fedBackend) inputSplits(site string, nMaps int, bytes int64) []mapreduce.Split {
	c := b.f.Cloud(site)
	if c == nil {
		return nil
	}
	per := bytes / int64(nMaps)
	splits := make([]mapreduce.Split, nMaps)
	for i := range splits {
		splits[i] = mapreduce.Split{Bytes: per, Preferred: []*simnet.Node{c.RepoNode()}}
	}
	return splits
}

// WireSchedulerSpot installs scheduler-aware spot revocation on a cloud: a
// revoked worker belonging to a scheduler job is removed from that job's
// cluster and the scheduler is notified (which, by default, grows an
// on-demand replacement — §IV's revocation resilience, scheduler-wide).
// Non-scheduler VMs fall back to the classic kill.
func (f *Federation) WireSchedulerSpot(cloud string) {
	if f.schedBackend == nil {
		panic("core: EnableScheduler before WireSchedulerSpot")
	}
	c := f.clouds[cloud]
	if c == nil {
		panic("core: unknown cloud " + cloud)
	}
	b := f.schedBackend
	c.Spot.OnRevoke = func(v *vm.VM) {
		if lj := b.owner[v.Name]; lj != nil && lj.vc != nil {
			lj.vc.mr.RemoveWorker(v.Name)
			delete(b.owner, v.Name)
			f.killSpot(v)
			b.s.Notify(sched.Event{Kind: sched.EventSpotRevoked, Job: lj.id, Cloud: cloud})
			return
		}
		f.killSpot(v)
	}
}

// NotifySchedulerPatterns classifies each tenant's observed traffic (from
// the attached netmon monitor) and forwards pattern events to the
// scheduler — the §III-C monitoring pipeline feeding placement bias.
// Returns the per-tenant patterns notified.
func (f *Federation) NotifySchedulerPatterns() map[string]string {
	if f.schedBackend == nil || f.monitor == nil {
		return nil
	}
	b := f.schedBackend
	nodeTenant := make(map[string]string)
	for name, lj := range b.owner {
		if c := f.CloudOf(name); c != nil {
			if h := c.HostOf(name); h != nil {
				nodeTenant[h.Node.ID] = lj.tenant
			}
		}
	}
	perTenant := make(map[string]netmon.Matrix)
	for e, bytes := range f.monitor.Matrix() {
		ts, td := nodeTenant[e[0]], nodeTenant[e[1]]
		if ts == "" || ts != td {
			continue
		}
		m := perTenant[ts]
		if m == nil {
			m = make(netmon.Matrix)
			perTenant[ts] = m
		}
		m.Add(e[0], e[1], bytes)
	}
	out := make(map[string]string, len(perTenant))
	for tenant, m := range perTenant {
		p := sched.ClassifyMatrix(m)
		out[tenant] = p
		b.s.Notify(sched.Event{Kind: sched.EventPatternDetected, Tenant: tenant, Pattern: p})
	}
	return out
}

// EMRGate adapts the scheduler into an emr.Gate: deadline jobs submitted to
// an emr.Service with this gate queue under the tenant's fair share instead
// of launching directly on their cluster.
func (f *Federation) EMRGate(tenant string) emr.Gate {
	if f.sched == nil {
		panic("core: EnableScheduler before EMRGate")
	}
	return emrGate{s: f.sched, tenant: tenant}
}

type emrGate struct {
	s      *sched.Scheduler
	tenant string
}

// Admit implements emr.Gate.
func (g emrGate) Admit(tenant, name string, cores int, estimate sim.Time, run func(release func(error))) {
	if tenant == "" {
		tenant = g.tenant
	}
	if cores <= 0 {
		cores = 1
	}
	_, err := g.s.Submit(sched.JobSpec{
		Tenant:          tenant,
		Name:            name,
		Workers:         cores,
		CoresPerWorker:  1,
		EstimateSeconds: estimate.Seconds(),
		Run:             run,
	})
	if err != nil {
		// External jobs occupy caller-owned capacity; an unschedulable
		// spec can only mean a missing tenant, which Submit auto-creates —
		// run immediately rather than losing the job.
		run(func(error) {})
	}
}
