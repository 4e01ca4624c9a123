package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/capacity"
	"repro/internal/mapreduce"
	"repro/internal/sim"
)

// SimBackend is a lightweight synthetic Backend for unit tests and
// benchmarks: clouds are bare capacity-ledger accounts, a launched job
// completes after its estimate (scaled by the plan's slowest member, plus
// streaming time for uncovered input and cross-site shuffle time for
// spanning plans), and grow/shrink only move ledger leases. It exercises
// every scheduler code path — including gang placement and
// reservation-aware growth — without the nimbus/migration stack
// underneath. All core accounting flows through the same internal/capacity
// ledger the federation backend uses: running jobs hold leases with
// estimated ends, so probes at future instants see their hand-back.
type SimBackend struct {
	k      *sim.Kernel
	ledger *capacity.Ledger
	clouds []*SimCloud
	bw     map[[2]string]float64

	// DefaultBandwidth is returned for unset site pairs. Zero means
	// 100 MB/s.
	DefaultBandwidth float64

	// Overrun optionally scales a launched job's actual runtime relative to
	// its plan-level estimate (nil or <=0 returns: estimates are exact).
	// The job's ledger lease keeps its *estimated* end — exactly the
	// optimistic-estimate situation a real federation produces, where
	// releases go overdue, reservations slip, and preemption earns its
	// keep.
	Overrun func(j *Job) float64

	// Launches counts Launch calls.
	Launches int

	// failNext maps cloud -> remaining injected transient launch failures:
	// while positive, a Launch whose plan touches the cloud consumes one
	// strike and fails with ErrTransientLaunch (see FailNextLaunches).
	failNext map[string]int

	// Launch-time estimate view, rebuilt only when the cloud set changes:
	// planEstimateSeconds reads nothing but static attributes (name, speed)
	// from it, so the free cores it carries are allowed to go stale.
	view        CloudView
	snapScratch []CloudInfo
	viewClouds  int // cloud count the view was built against
}

// SimCloud is one synthetic cloud. Resize mid-run with SetTotal (tests
// shrink clouds under queued jobs). The ledger account is the only record
// of capacity — there is no shadow total to desync.
type SimCloud struct {
	Name  string
	Speed float64
	Price float64

	b *SimBackend
}

// Total returns the cloud's capacity, straight from the ledger account.
func (c *SimCloud) Total() int { return c.b.ledger.Total(c.Name) }

// SetTotal resizes the cloud's ledger account.
func (c *SimCloud) SetTotal(cores int) { c.b.ledger.SetTotal(c.Name, cores) }

// Free returns currently unallocated cores.
func (c *SimCloud) Free() int { return c.b.ledger.Free(c.Name) }

// NewSimBackend returns an empty synthetic backend on the kernel.
func NewSimBackend(k *sim.Kernel) *SimBackend {
	return &SimBackend{k: k, ledger: capacity.New(), bw: make(map[[2]string]float64)}
}

// AddCloud registers a synthetic cloud.
func (b *SimBackend) AddCloud(name string, cores int, speed, price float64) *SimCloud {
	if speed <= 0 {
		speed = 1
	}
	c := &SimCloud{Name: name, Speed: speed, Price: price, b: b}
	b.clouds = append(b.clouds, c)
	sort.Slice(b.clouds, func(i, j int) bool { return b.clouds[i].Name < b.clouds[j].Name })
	b.ledger.AddCloud(name, cores)
	return c
}

// SetBandwidth sets the symmetric inter-site bandwidth in bytes/sec.
func (b *SimBackend) SetBandwidth(a, c string, bw float64) {
	b.bw[[2]string{a, c}] = bw
	b.bw[[2]string{c, a}] = bw
}

// UseLogNormalOverrun installs a log-normal estimate-error model: each
// launched job's actual runtime is its estimate × exp(mu + sigma·N(0,1)).
// With mu=0 the median job matches its estimate while the right tail
// overruns — the optimistic-estimate regime that makes releases go overdue
// and reservations slip. The generator is seeded once from the kernel's RNG
// and then draws from its own stream, so enabling it shifts the kernel
// stream by exactly one draw and same-seed runs stay bit-identical.
func (b *SimBackend) UseLogNormalOverrun(mu, sigma float64) {
	rng := rand.New(rand.NewSource(b.k.Rand().Int63()))
	b.Overrun = func(*Job) float64 {
		return math.Exp(mu + sigma*rng.NormFloat64())
	}
}

// FailCloud crashes a synthetic cloud: the ledger's outage transition closes
// every lease and committed core there in one generation-bumped step and
// refuses new admissions until RestoreCloud. Returns the cores lost. The
// caller (replay driver, test) follows up with a Notify(EventCloudFailed) so
// the scheduler requeues the affected gangs — the ledger transition must come
// first, which is why the backend does not notify itself.
func (b *SimBackend) FailCloud(name string) (int, error) {
	return b.ledger.FailCloud(name)
}

// RestoreCloud ends a synthetic cloud's outage.
func (b *SimBackend) RestoreCloud(name string) error {
	return b.ledger.RestoreCloud(name)
}

// FailNextLaunches makes the next n Launch calls whose plan touches the
// cloud fail with ErrTransientLaunch before acquiring anything — the
// injected deploy fault that fuels the scheduler's retry/backoff path.
func (b *SimBackend) FailNextLaunches(cloud string, n int) {
	if b.failNext == nil {
		b.failNext = make(map[string]int)
	}
	b.failNext[cloud] += n
}

// Cloud returns a synthetic cloud by name, or nil.
func (b *SimBackend) Cloud(name string) *SimCloud {
	for _, c := range b.clouds {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Kernel implements Backend.
func (b *SimBackend) Kernel() *sim.Kernel { return b.k }

// Ledger implements Backend.
func (b *SimBackend) Ledger() *capacity.Ledger { return b.ledger }

// AppendClouds implements Backend. The free/total reads come from the
// ledger's bulk walk — one lock round-trip per snapshot instead of two per
// cloud. b.clouds and the ledger keep name-sorted cloud sets populated in
// pairs by AddCloud, so the two walk in lockstep.
func (b *SimBackend) AppendClouds(dst []CloudInfo) []CloudInfo {
	i := 0
	b.ledger.FreeTotals(func(name string, free, total int) {
		for i < len(b.clouds) && b.clouds[i].Name != name {
			i++
		}
		if i == len(b.clouds) {
			return
		}
		c := b.clouds[i]
		dst = append(dst, CloudInfo{
			Name: name, FreeCores: free, TotalCores: total,
			Speed: c.Speed, Price: c.Price,
		})
	})
	return dst
}

// Bandwidth implements Backend.
func (b *SimBackend) Bandwidth(a, c string) float64 {
	if bw, ok := b.bw[[2]string{a, c}]; ok {
		return bw
	}
	if b.DefaultBandwidth > 0 {
		return b.DefaultBandwidth
	}
	return 100 << 20
}

// SimHandle is the synthetic job handle; exported so tests can assert on
// grow/shrink traffic.
type SimHandle struct {
	b    *SimBackend
	j    *Job
	plan Plan
	// base holds the plan's member-cloud leases (estimated ends at the
	// job's ETA); extras lists elastic-growth leases in grow order (shrink
	// releases from the end). baseBuf inlines base's storage for the
	// common narrow plan so Launch allocates no lease slice.
	base     []*capacity.Lease
	baseBuf  [4]*capacity.Lease
	extras   []*capacity.Lease
	started  sim.Time
	duration sim.Time
	finished bool
	onDone   func(*Job, Outcome)

	GrowCalls   int
	ShrinkCalls int
}

// Grow implements Handle: each extra worker takes cores immediately,
// preferring the plan's member clouds in order and only then spilling onto
// a new cloud (chosen by most probe-able headroom, then name) — the gang
// extends in place before gaining a member. Every candidate is vetted with
// a ledger Probe, so growth is denied cores an outstanding backfill
// reservation will need, even when they are free right now. Errors when no
// cloud passes the probe.
func (h *SimHandle) Grow(n int, onDone func(error)) {
	h.GrowCalls++
	per := h.j.coresPerWorker()
	var err error
	var added []*capacity.Lease
	for i := 0; i < n; i++ {
		cloud := h.growTarget(per)
		if cloud == "" {
			err = fmt.Errorf("sched: no cloud can host another worker")
			break
		}
		le, aerr := h.b.ledger.Acquire(cloud, per)
		if aerr != nil {
			err = aerr
			break
		}
		added = append(added, le)
	}
	if err != nil { // all-or-nothing, as before
		for _, le := range added {
			le.Release()
		}
	} else {
		h.extras = append(h.extras, added...)
	}
	if onDone != nil {
		h.b.k.Schedule(0, func() { onDone(err) })
	}
}

// growTarget picks the cloud for one extra worker via the ledger's shared
// grow-target policy (the same one the federation backend uses): members
// first in plan order, then the non-member with the most
// reservation-aware headroom, every candidate Probe-vetted. alloc is nil
// because Grow acquires each worker's lease before picking the next.
func (h *SimHandle) growTarget(per int) string {
	names := make([]string, 0, len(h.b.clouds))
	for _, c := range h.b.clouds { // sorted by name
		names = append(names, c.Name)
	}
	members, spill := h.plan.GrowCandidates(names)
	return h.b.ledger.PickGrowTarget(members, spill, per, h.b.k.Now(), nil)
}

// Preemptible implements Handle: a synthetic job can always be torn
// down while it runs (capacity is plain ledger leases).
func (h *SimHandle) Preemptible() bool { return !h.finished }

// Preempt implements Handle: every lease the job holds converts to a
// beneficiary reservation at `at` through the ledger's atomic eviction
// transition, and the scheduled completion is disarmed — the job delivers
// no Outcome (the scheduler requeues it instead).
func (h *SimHandle) Preempt(at sim.Time) []*capacity.Lease {
	if h.finished {
		return nil
	}
	h.finished = true
	var shields []*capacity.Lease
	for _, le := range h.base {
		if sh, _ := h.b.ledger.Evict(le, at); sh != nil {
			shields = append(shields, sh)
		}
	}
	for _, le := range h.extras {
		if sh, _ := h.b.ledger.Evict(le, at); sh != nil {
			shields = append(shields, sh)
		}
	}
	h.extras = nil
	return shields
}

// Relocate implements Handle: the job's base leases on `from` retarget
// to `to` through the ledger's atomic move (estimated ends carry over), and
// the handle's plan copy follows — mirroring what the federation backend
// does with live VM migration, so sched-layer consolidation tests need no
// nimbus/migration stack underneath.
func (h *SimHandle) Relocate(from, to string, workers int, onDone func(error)) {
	per := h.j.coresPerWorker()
	cores := workers * per
	var err error
	var moved []*capacity.Lease
	for i := 0; i < len(h.base) && cores > 0 && err == nil; i++ {
		le := h.base[i]
		if !le.Active() || le.Cloud != from {
			continue
		}
		take := cores
		if take > le.Cores {
			take = le.Cores
		}
		var nl *capacity.Lease
		nl, err = le.Retarget(to, take)
		if err != nil {
			break
		}
		moved = append(moved, nl)
		cores -= take
	}
	if err == nil && cores > 0 {
		err = fmt.Errorf("sched: job holds fewer than %d workers on %s", workers, from)
	}
	if err != nil {
		// All-or-nothing: a half-moved gang would leave the plan lying
		// about where its leases live — retarget the moved slices back.
		for _, nl := range moved {
			if back, rerr := nl.Retarget(from, nl.Cores); rerr == nil {
				h.base = append(h.base, back)
			} else {
				h.base = append(h.base, nl) // unreachable: the cores just left
			}
		}
	} else {
		h.base = append(h.base, moved...)
		h.plan = h.plan.MoveWorkers(from, to, workers)
	}
	if onDone != nil {
		h.b.k.Schedule(0, func() { onDone(err) })
	}
}

// Shrink implements Handle: releases elastic extras only, newest first.
func (h *SimHandle) Shrink(n int) int {
	h.ShrinkCalls++
	given := 0
	for given < n && len(h.extras) > 0 {
		le := h.extras[len(h.extras)-1]
		h.extras = h.extras[:len(h.extras)-1]
		le.Release()
		given++
	}
	return given
}

// Progress implements Handle with a two-phase linear model: maps complete
// over the first 70% of the runtime, reduces over the tail (so the elastic
// shrink path sees a drained map phase before completion).
func (h *SimHandle) Progress() (int, int, int, int) {
	mt := h.j.Spec.MR.NumMaps
	if mt <= 0 {
		mt = 100
	}
	rt := h.j.Spec.MR.NumReduces
	frac := 1.0
	if h.duration > 0 {
		frac = float64(h.b.k.Now()-h.started) / float64(h.duration)
	}
	if frac > 1 {
		frac = 1
	}
	const mapPhase = 0.7
	mfrac := frac / mapPhase
	if mfrac > 1 {
		mfrac = 1
	}
	md := int(mfrac * float64(mt))
	rd := 0
	if frac > mapPhase {
		rd = int((frac - mapPhase) / (1 - mapPhase) * float64(rt))
	}
	return md, mt, rd, rt
}

// rollback releases the base leases acquired so far by a failing Launch.
func (h *SimHandle) rollback() {
	for _, prev := range h.base {
		prev.Release()
	}
}

// Launch implements Backend: acquire a lease on every member cloud
// (estimated end at the job's ETA, so future probes see the hand-back),
// run for the plan-level estimate (slowest member speed + uncovered-input
// streaming + cross-site shuffle), release everything at completion.
func (b *SimBackend) Launch(j *Job, plan Plan, onDone func(*Job, Outcome)) (Handle, error) {
	if len(b.failNext) > 0 {
		for _, m := range plan.Members {
			if b.failNext[m.Cloud] > 0 {
				b.failNext[m.Cloud]--
				if b.failNext[m.Cloud] == 0 {
					delete(b.failNext, m.Cloud)
				}
				return nil, fmt.Errorf("sched: deploy fault on %s: %w", m.Cloud, ErrTransientLaunch)
			}
		}
	}
	per := j.coresPerWorker()
	if b.viewClouds != len(b.clouds) {
		b.snapScratch = b.AppendClouds(b.snapScratch[:0])
		b.view.Reset(b.snapScratch)
		b.viewClouds = len(b.clouds)
	}
	secs := planEstimateSeconds(b, j, plan, &b.view)
	h := &SimHandle{b: b, j: j, plan: plan, started: b.k.Now(), duration: sim.FromSeconds(secs)}
	if n := len(plan.Members); n <= len(h.baseBuf) {
		h.base = h.baseBuf[:0]
	} else {
		h.base = make([]*capacity.Lease, 0, n)
	}
	eta := h.started + h.duration // the estimate, even when the run overruns
	if b.Overrun != nil {
		if f := b.Overrun(j); f > 0 {
			h.duration = sim.FromSeconds(secs * f)
		}
	}
	for _, m := range plan.Members {
		if b.Cloud(m.Cloud) == nil {
			h.rollback()
			return nil, fmt.Errorf("sched: unknown cloud %q", m.Cloud)
		}
		need := m.Workers * per
		le, err := b.ledger.AcquireUntil(m.Cloud, need, eta)
		if err != nil {
			h.rollback()
			return nil, fmt.Errorf("sched: %s has %d free cores, plan slice needs %d",
				m.Cloud, b.ledger.Free(m.Cloud), need)
		}
		h.base = append(h.base, le)
	}
	b.Launches++
	h.onDone = onDone
	b.k.ScheduleCall(h.duration, h)
	return h, nil
}

// Fire implements sim.Callee: the run's scheduled completion. Release every
// lease and deliver the outcome. Scheduling the handle itself avoids the
// per-launch completion closure the hot path used to allocate.
func (h *SimHandle) Fire() {
	if h.finished {
		return
	}
	h.finished = true
	for _, le := range h.base {
		le.Release()
	}
	for _, le := range h.extras {
		le.Release()
	}
	h.extras = nil
	h.onDone(h.j, Outcome{Result: mapreduce.Result{Job: h.j.Spec.Name, Makespan: h.duration}})
}
