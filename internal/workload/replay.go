package workload

import (
	"fmt"
	"sort"

	"repro/internal/sched"
	"repro/internal/sim"
)

// CloudSpec is one synthetic cloud in the replay federation.
type CloudSpec struct {
	Name  string
	Cores int
	Speed float64
	Price float64
}

// DefaultClouds is the replay federation used when ReplayConfig.Clouds is
// empty: four 64-core clouds with mild speed and price spread — wide
// enough that heavy-tailed gangs span, small enough that a diurnal peak
// saturates it.
func DefaultClouds() []CloudSpec {
	return []CloudSpec{
		{Name: "cloud0", Cores: 64, Speed: 1.0, Price: 0.08},
		{Name: "cloud1", Cores: 64, Speed: 1.0, Price: 0.10},
		{Name: "cloud2", Cores: 64, Speed: 1.2, Price: 0.12},
		{Name: "cloud3", Cores: 64, Speed: 0.8, Price: 0.06},
	}
}

// ReplayConfig drives one replay.
type ReplayConfig struct {
	// Clouds is the federation (nil = DefaultClouds).
	Clouds []CloudSpec
	// Sched carries the policy knobs under test (preemption, aging,
	// backfill...). Replay never calls Scheduler.Start, so the knobs that
	// act through the elastic pass (EnableConsolidation, and preemption's
	// forced evictions of overrunning jobs) change nothing here.
	Sched sched.Config
	// OverrunSigma > 0 installs SimBackend.UseLogNormalOverrun(OverrunMu,
	// OverrunSigma): estimates stay exact at the median while the right
	// tail overruns — the seeded mis-estimation regime.
	OverrunMu, OverrunSigma float64
	// KernelSeed seeds the replay kernel (0 = the trace's header seed).
	KernelSeed int64
	// OnFinish, if set, runs after the kernel drains, before metrics are
	// reduced — the hook skyctl and tests use to snapshot the scheduler's
	// registry.
	OnFinish func(*sched.Scheduler, *sched.SimBackend)
}

// Result is one survival-table row: the replay reduced to the metrics a
// policy is judged by.
type Result struct {
	Jobs       int // submit events streamed
	Completed  int
	Failed     int
	Unfinished int // still queued/running when the kernel drained (never placeable)

	MeanWaitSeconds float64
	P50WaitSeconds  float64
	P99WaitSeconds  float64
	MaxWaitSeconds  float64
	MakespanSeconds float64 // last completion's finish time

	Backfills       int
	Preemptions     int
	SpotRevocations int
	Consolidations  int

	// Fault-tolerance columns, all zero for a fault-free trace.
	Outages        int // outage events replayed (full crashes reaching the scheduler)
	OutageRequeues int // running gangs torn down and requeued by outages
	Quarantines    int // flapping clouds placed behind readmission backoff
	LaunchRetries  int // transiently failed launches retried with backoff

	// ShareErrorMax is the largest |delivered − entitled| share across
	// tenants at drain time: how far the policy let fairness drift.
	ShareErrorMax float64
}

// String renders the result as a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("jobs=%d done=%d wait(p50/p99)=%.1fs/%.1fs makespan=%.0fs preempt=%d shareErr=%.3f",
		r.Jobs, r.Completed, r.P50WaitSeconds, r.P99WaitSeconds,
		r.MakespanSeconds, r.Preemptions, r.ShareErrorMax)
}

// Replay streams the trace through a scheduler on a fresh SimBackend and
// reduces the run. Events are chain-injected — one pending injector event
// at a time — so the kernel's queue stays proportional to in-flight jobs,
// not trace length. Deterministic: same trace + config → identical Result.
func Replay(tr *Trace, cfg ReplayConfig) (Result, error) {
	clouds := cfg.Clouds
	if len(clouds) == 0 {
		clouds = DefaultClouds()
	}
	seed := cfg.KernelSeed
	if seed == 0 {
		seed = tr.Header.Seed
	}
	k := sim.NewKernel(seed)
	b := sched.NewSimBackend(k)
	for _, c := range clouds {
		b.AddCloud(c.Name, c.Cores, c.Speed, c.Price)
	}
	if cfg.OverrunSigma > 0 {
		b.UseLogNormalOverrun(cfg.OverrunMu, cfg.OverrunSigma)
	}
	s := sched.New(b, cfg.Sched)
	for _, t := range tr.Header.Tenants {
		s.AddTenant(t.Name, t.Weight)
	}

	var res Result
	ids := make([]string, 0, len(tr.Events))
	// spotLive tracks submitted spot jobs for revocation storms, compacted
	// lazily as storms walk it (submission order = deterministic strike
	// order).
	var spotLive []string
	var submitErr error
	// Fault-episode state, allocated only when the trace carries faults:
	// partialLost remembers how many cores each partially-down cloud lost (so
	// its restore knows the base to return to), baseBW caches a degraded
	// link's pre-fault bandwidth.
	var partialLost map[string]int
	var baseBW map[[2]string]float64
	var inject func(i int)
	process := func(ev *Event) {
		switch ev.Kind {
		case KindSubmit:
			id, err := s.Submit(sched.JobSpec{
				Tenant:          ev.Tenant,
				Name:            ev.Name,
				Workers:         ev.Workers,
				CoresPerWorker:  ev.Cores,
				EstimateSeconds: ev.EstimateSeconds,
				Spot:            ev.Spot,
				Bid:             ev.Bid,
			})
			if err != nil {
				if submitErr == nil {
					submitErr = fmt.Errorf("workload: submit %s: %w", ev.Name, err)
				}
				return
			}
			res.Jobs++
			ids = append(ids, id)
			if ev.Spot {
				spotLive = append(spotLive, id)
			}
		case KindRevoke:
			struck := 0
			live := spotLive[:0]
			for _, id := range spotLive {
				ji, ok := s.Poll(id)
				if !ok || ji.State == sched.Done || ji.State == sched.Failed {
					continue // drop finished jobs from the live list
				}
				live = append(live, id)
				if ji.State != sched.Running {
					continue
				}
				if ev.Strikes > 0 && struck >= ev.Strikes {
					continue
				}
				onCloud := false
				for _, m := range ji.Plan.Members {
					if m.Cloud == ev.Cloud {
						onCloud = true
						break
					}
				}
				if onCloud {
					s.Notify(sched.Event{Kind: sched.EventSpotRevoked, Job: id, Cloud: ev.Cloud})
					struck++
				}
			}
			spotLive = live
		case KindOutage:
			if ev.Partial > 0 {
				// Partial host loss: capacity shrinks, survivors keep
				// running. Track the loss so the restore knows the base.
				c := b.Cloud(ev.Cloud)
				if c == nil {
					if submitErr == nil {
						submitErr = fmt.Errorf("workload: outage on unknown cloud %q", ev.Cloud)
					}
					return
				}
				if partialLost == nil {
					partialLost = make(map[string]int)
				}
				total := c.Total()
				lost := ev.Partial
				if lost >= total {
					lost = total - 1 // a full crash is spelled Partial == 0
				}
				if lost <= 0 || partialLost[ev.Cloud] > 0 {
					return // malformed or overlapping episode: skip
				}
				partialLost[ev.Cloud] = lost
				c.SetTotal(total - lost)
				return
			}
			// Full crash: the ledger transition first (leases close,
			// committed cores zero), then the scheduler requeues the gangs
			// that lived there.
			if _, err := b.FailCloud(ev.Cloud); err != nil {
				if submitErr == nil {
					submitErr = fmt.Errorf("workload: outage: %w", err)
				}
				return
			}
			s.Notify(sched.Event{Kind: sched.EventCloudFailed, Cloud: ev.Cloud})
		case KindRestore:
			if lost := partialLost[ev.Cloud]; lost > 0 {
				delete(partialLost, ev.Cloud)
				c := b.Cloud(ev.Cloud)
				c.SetTotal(c.Total() + lost)
				// Not a ledger restore, but capacity returned: poke the
				// scheduler so queued jobs recheck.
				s.Notify(sched.Event{Kind: sched.EventCloudRestored, Cloud: ev.Cloud})
				return
			}
			if err := b.RestoreCloud(ev.Cloud); err != nil {
				if submitErr == nil {
					submitErr = fmt.Errorf("workload: restore: %w", err)
				}
				return
			}
			s.Notify(sched.Event{Kind: sched.EventCloudRestored, Cloud: ev.Cloud})
		case KindDegrade:
			if baseBW == nil {
				baseBW = make(map[[2]string]float64)
			}
			key := [2]string{ev.Cloud, ev.Peer}
			if ev.Factor >= 1 {
				// Factor 1 ends the episode: the link returns to its
				// pre-degradation bandwidth.
				if base, ok := baseBW[key]; ok {
					b.SetBandwidth(ev.Cloud, ev.Peer, base)
					delete(baseBW, key)
				}
				return
			}
			base, ok := baseBW[key]
			if !ok {
				base = b.Bandwidth(ev.Cloud, ev.Peer)
				baseBW[key] = base
			}
			b.SetBandwidth(ev.Cloud, ev.Peer, base*ev.Factor)
		case KindDeployFault:
			strikes := ev.Strikes
			if strikes <= 0 {
				strikes = 1
			}
			b.FailNextLaunches(ev.Cloud, strikes)
		}
	}
	inject = func(i int) {
		// Drain every event stamped at this instant in one callback, then
		// re-arm for the next timestamp.
		at := tr.Events[i].At
		for i < len(tr.Events) && tr.Events[i].At == at {
			process(&tr.Events[i])
			i++
		}
		if i < len(tr.Events) {
			next := i
			k.At(sim.Time(tr.Events[next].At), func() { inject(next) })
		}
	}
	if len(tr.Events) > 0 {
		first := 0
		k.At(sim.Time(tr.Events[first].At), func() { inject(first) })
	}
	k.Run()
	if submitErr != nil {
		return Result{}, submitErr
	}
	if cfg.OnFinish != nil {
		cfg.OnFinish(s, b)
	}

	waits := make([]float64, 0, len(ids))
	for _, id := range ids {
		ji, ok := s.Poll(id)
		if !ok {
			continue
		}
		switch ji.State {
		case sched.Done:
			res.Completed++
			waits = append(waits, (ji.Started - ji.Submitted).Seconds())
			if fin := ji.Finished.Seconds(); fin > res.MakespanSeconds {
				res.MakespanSeconds = fin
			}
		case sched.Failed:
			res.Failed++
		default:
			res.Unfinished++
		}
	}
	if len(waits) > 0 {
		sort.Float64s(waits)
		var sum float64
		for _, w := range waits {
			sum += w
		}
		res.MeanWaitSeconds = sum / float64(len(waits))
		res.P50WaitSeconds = percentile(waits, 0.50)
		res.P99WaitSeconds = percentile(waits, 0.99)
		res.MaxWaitSeconds = waits[len(waits)-1]
	}
	res.Backfills = s.Backfills()
	res.Preemptions = s.Preemptions()
	res.SpotRevocations = s.SpotRevocations()
	res.Consolidations = s.Consolidations()
	res.Outages = s.Outages()
	res.OutageRequeues = s.OutageRequeues()
	res.Quarantines = s.Quarantines()
	res.LaunchRetries = s.LaunchRetries()
	shares, entitled := s.Shares(), s.EntitledShares()
	for _, t := range tr.Header.Tenants {
		if err := shares[t.Name] - entitled[t.Name]; err > res.ShareErrorMax {
			res.ShareErrorMax = err
		} else if -err > res.ShareErrorMax {
			res.ShareErrorMax = -err
		}
	}
	return res, nil
}

// percentile returns the value of 1-based rank p·n, rounded half up and
// clamped to [1, n], from n sorted values. That is not nearest rank
// (⌈p·n⌉): for p = 0.99 and n = 70 it returns the 69th smallest value,
// where nearest rank returns the 70th.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
