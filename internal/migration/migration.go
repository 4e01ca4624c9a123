// Package migration implements live virtual machine migration over the
// simulated network: the classic iterative pre-copy algorithm (Clark et al.
// NSDI'05, as shipped in KVM), the Shrinker variant that deduplicates page
// and disk content across the WAN using a destination-site content registry
// (§III-A of the paper), a suspend/resume baseline (Sapuntzakis et al.
// OSDI'02), and an orchestrator that migrates whole virtual clusters.
package migration

import (
	"fmt"

	"repro/internal/dedup"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vm"
)

// Options configures one migration.
type Options struct {
	// Registry enables Shrinker-style deduplication when non-nil: page
	// hashes are looked up at the destination; only misses ship page
	// bodies. The registry's scope (node vs site) is the A1 ablation.
	Registry *dedup.Registry

	// MigrateDisk transfers the VM's disk image as well (required for WAN
	// migrations without shared storage; §III intro lists this as why LAN
	// techniques fail over WANs).
	MigrateDisk bool

	// DedupDisk applies the registry to disk blocks too (Shrinker
	// exploits identical data "both in memory and on disk").
	DedupDisk bool

	// MaxRounds bounds pre-copy iterations before forcing stop-and-copy.
	// Zero means 30 (the KVM default era value).
	MaxRounds int

	// StopCopyPages: when the dirty set is at most this many pages, the VM
	// is paused and the remainder copied. Zero means 256 pages (1 MiB).
	StopCopyPages int

	// ActivationDelay models device re-attachment and guest resume at the
	// destination. Zero means 20 ms.
	ActivationDelay sim.Time

	// DedupPageOverhead is the per-page CPU cost of hashing, registry
	// lookup, and indexing when Registry is enabled. This is why the
	// paper's measured migration-*time* saving (~20%) trails its
	// bandwidth saving (30-40%). Zero means 8 µs/page.
	DedupPageOverhead sim.Time
}

func (o Options) withDefaults() Options {
	if o.MaxRounds == 0 {
		o.MaxRounds = 30
	}
	if o.StopCopyPages == 0 {
		o.StopCopyPages = 256
	}
	if o.ActivationDelay == 0 {
		o.ActivationDelay = 20 * sim.Millisecond
	}
	if o.DedupPageOverhead == 0 {
		o.DedupPageOverhead = 8 * sim.Microsecond
	}
	return o
}

// dedupDelay returns the hashing/lookup compute time for n items under the
// options (zero when dedup is off).
func (o Options) dedupDelay(n int) sim.Time {
	if o.Registry == nil {
		return 0
	}
	return o.DedupPageOverhead * sim.Time(n)
}

// Result reports one VM migration.
type Result struct {
	VM       string
	Workload string
	Method   string // "precopy", "shrinker", "suspend-resume"

	TotalTime sim.Time // request to resumed-at-destination
	Downtime  sim.Time // paused to resumed

	Rounds int

	// Byte accounting. RawBytes is what a dedup-free migration of the same
	// page/block stream would have shipped; WireBytes is what actually
	// crossed the network (hashes + missed bodies). The paper's
	// "30-40 % bandwidth reduction" compares these two.
	RawBytes  int64
	WireBytes int64

	PagesSent     int64 // page bodies shipped
	PagesDeduped  int64 // pages satisfied by hash alone
	BlocksSent    int64
	BlocksDeduped int64

	Err error
}

// BandwidthSaving returns 1 - WireBytes/RawBytes.
func (r Result) BandwidthSaving() float64 {
	if r.RawBytes == 0 {
		return 0
	}
	return 1 - float64(r.WireBytes)/float64(r.RawBytes)
}

func (r Result) String() string {
	return fmt.Sprintf("%s[%s/%s]: total=%v downtime=%v rounds=%d wire=%dMB raw=%dMB saving=%.1f%%",
		r.VM, r.Method, r.Workload, r.TotalTime, r.Downtime, r.Rounds,
		r.WireBytes>>20, r.RawBytes>>20, 100*r.BandwidthSaving())
}

// transferPlan prices a batch of contents: wire bytes with/without dedup.
type transferPlan struct {
	raw, wire     int64
	sent, deduped int64
}

// plan prices n contents of unit bytes. With a registry every content
// crosses as its hash, and the n - deduped the registry lacked also carry
// their bodies.
func plan(n, deduped, unit int64, reg *dedup.Registry) transferPlan {
	p := transferPlan{raw: n * unit, wire: (n - deduped) * unit, sent: n - deduped, deduped: deduped}
	if reg != nil {
		p.wire += n * vm.HashSize
	}
	return p
}

// items returns how many contents the plan priced.
func (p transferPlan) items() int64 { return p.sent + p.deduped }

// planPages prices the listed pages of mem, or every page when pages is
// nil, admitting each content to reg in place.
func planPages(mem *vm.Memory, pages []int, reg *dedup.Registry) transferPlan {
	n := len(pages)
	if pages == nil {
		n = mem.NumPages()
	}
	var deduped int64
	if reg != nil {
		if pages == nil {
			for i := 0; i < n; i++ {
				if reg.Admit(mem.Page(i)) {
					deduped++
				}
			}
		}
		for _, i := range pages {
			if reg.Admit(mem.Page(i)) {
				deduped++
			}
		}
	}
	return plan(int64(n), deduped, vm.PageSize, reg)
}

// planDisk prices every block of d.
func planDisk(d *vm.DiskImage, reg *dedup.Registry) transferPlan {
	n := d.NumBlocks()
	var deduped int64
	if reg != nil {
		for i := 0; i < n; i++ {
			if reg.Admit(d.Read(i)) {
				deduped++
			}
		}
	}
	return plan(int64(n), deduped, d.BlockSize, reg)
}

// addPages books a plan of memory pages into the result.
func (r *Result) addPages(p transferPlan) {
	r.RawBytes += p.raw
	r.WireBytes += p.wire
	r.PagesSent += p.sent
	r.PagesDeduped += p.deduped
}

// addBlocks books a plan of disk blocks into the result.
func (r *Result) addBlocks(p transferPlan) {
	r.RawBytes += p.raw
	r.WireBytes += p.wire
	r.BlocksSent += p.sent
	r.BlocksDeduped += p.deduped
}

// Live performs an iterative pre-copy live migration of v from src to dst.
// The result arrives via onDone. The VM's attached workload keeps dirtying
// memory during pre-copy rounds and stops while the VM is paused.
func Live(net *simnet.Network, v *vm.VM, src, dst *simnet.Node, opts Options, onDone func(Result)) {
	opts = opts.withDefaults()
	k := net.K
	method := "precopy"
	if opts.Registry != nil {
		method = "shrinker"
	}
	res := Result{VM: v.Name, Method: method}
	if w := v.Workload(); w != nil {
		res.Workload = w.Name
	}
	start := k.Now()
	v.State = vm.StateMigrating

	finish := func() {
		v.State = vm.StateRunning
		v.HostID = dst.ID
		v.SiteName = dst.Site.Name
		res.TotalTime = k.Now() - start
		onDone(res)
	}

	// Phase 2+: iterative memory pre-copy. A round sends the listed pages,
	// or every page when pages is nil.
	var round func(pages []int)
	round = func(pages []int) {
		res.Rounds++
		p := planPages(v.Mem, pages, opts.Registry)
		res.addPages(p)
		v.Mem.ClearDirty()
		roundStart := k.Now()
		// Hashing and registry lookups cost CPU before bytes hit the wire.
		k.Schedule(opts.dedupDelay(int(p.items())), func() {
			net.StartFlow(src, dst, p.wire, "migrate-mem:"+v.Name, func() {
				elapsed := (k.Now() - roundStart).Seconds()
				if w := v.Workload(); w != nil {
					w.ApplyDirtying(v.Mem, elapsed)
				}
				dirty := v.Mem.DirtyPages()
				nd := int64(len(dirty))
				converged := len(dirty) <= opts.StopCopyPages
				stalled := res.Rounds >= 3 && nd >= p.items() // not shrinking
				if converged || stalled || res.Rounds >= opts.MaxRounds {
					// Stop-and-copy: pause, ship the remainder, activate.
					// The dedup compute on the remainder happens paused, so
					// it counts toward downtime.
					v.State = vm.StatePaused
					pauseAt := k.Now()
					sp := planPages(v.Mem, dirty, opts.Registry)
					res.addPages(sp)
					v.Mem.ClearDirty()
					k.Schedule(opts.dedupDelay(len(dirty)), func() {
						net.StartFlow(src, dst, sp.wire, "migrate-stop:"+v.Name, func() {
							k.Schedule(opts.ActivationDelay, func() {
								res.Downtime = k.Now() - pauseAt
								finish()
							})
						})
					})
					return
				}
				round(dirty)
			})
		})
	}

	// Phase 1: handshake (1 control RTT), then optional disk, then memory.
	net.SendMessage(src, dst, 4096, func() {
		net.SendMessage(dst, src, 4096, func() {
			if opts.MigrateDisk && v.Disk != nil {
				reg := opts.Registry
				if !opts.DedupDisk {
					reg = nil
				}
				dp := planDisk(v.Disk, reg)
				res.addBlocks(dp)
				roundStart := k.Now()
				var hashDelay sim.Time
				if reg != nil {
					hashDelay = opts.DedupPageOverhead * sim.Time(v.Disk.NumBlocks())
				}
				k.Schedule(hashDelay, func() {
					net.StartFlow(src, dst, dp.wire, "migrate-disk:"+v.Name, func() {
						// Guest kept running during disk copy.
						if w := v.Workload(); w != nil {
							w.ApplyDirtying(v.Mem, (k.Now() - roundStart).Seconds())
						}
						round(nil)
					})
				})
				return
			}
			round(nil)
		})
	})
}

// SuspendResume is the pre-live baseline: pause the VM, transfer everything,
// resume. Downtime equals the whole transfer.
func SuspendResume(net *simnet.Network, v *vm.VM, src, dst *simnet.Node, opts Options, onDone func(Result)) {
	opts = opts.withDefaults()
	k := net.K
	res := Result{VM: v.Name, Method: "suspend-resume"}
	if w := v.Workload(); w != nil {
		res.Workload = w.Name
	}
	start := k.Now()
	v.State = vm.StatePaused
	p := planPages(v.Mem, nil, opts.Registry)
	res.addPages(p)
	// Only contents the registry probed cost hashing time, as in Live.
	probed := p.items()
	if opts.MigrateDisk && v.Disk != nil {
		reg := opts.Registry
		if !opts.DedupDisk {
			reg = nil
		}
		dp := planDisk(v.Disk, reg)
		res.addBlocks(dp)
		if reg != nil {
			probed += dp.items()
		}
	}
	res.Rounds = 1
	k.Schedule(opts.dedupDelay(int(probed)), func() {
		net.StartFlow(src, dst, res.WireBytes, "migrate-sr:"+v.Name, func() {
			k.Schedule(opts.ActivationDelay, func() {
				res.Downtime = k.Now() - start
				res.TotalTime = res.Downtime
				v.State = vm.StateRunning
				v.HostID = dst.ID
				v.SiteName = dst.Site.Name
				onDone(res)
			})
		})
	})
}

// ClusterResult aggregates a whole-cluster migration.
type ClusterResult struct {
	Results     []Result
	TotalTime   sim.Time
	WireBytes   int64
	RawBytes    int64
	MaxDowntime sim.Time
}

// BandwidthSaving returns the cluster-wide saving.
func (c ClusterResult) BandwidthSaving() float64 {
	if c.RawBytes == 0 {
		return 0
	}
	return 1 - float64(c.WireBytes)/float64(c.RawBytes)
}

// Move pairs a VM with its source and destination hosts.
type Move struct {
	VM       *vm.VM
	Src, Dst *simnet.Node
}

// MigrateCluster live-migrates a set of VMs with the given concurrency
// (how many VM migrations run at once on the shared WAN). A shared registry
// in opts gives Shrinker its inter-VM deduplication: pages shipped for the
// first VM satisfy hash lookups for the rest.
func MigrateCluster(net *simnet.Network, moves []Move, opts Options, concurrency int, onDone func(ClusterResult)) {
	if concurrency < 1 {
		concurrency = 1
	}
	k := net.K
	start := k.Now()
	cres := ClusterResult{Results: make([]Result, len(moves))}
	next := 0
	inFlight := 0
	finished := 0
	var launch func()
	launch = func() {
		for inFlight < concurrency && next < len(moves) {
			i := next
			next++
			inFlight++
			mv := moves[i]
			Live(net, mv.VM, mv.Src, mv.Dst, opts, func(r Result) {
				cres.Results[i] = r
				cres.WireBytes += r.WireBytes
				cres.RawBytes += r.RawBytes
				if r.Downtime > cres.MaxDowntime {
					cres.MaxDowntime = r.Downtime
				}
				inFlight--
				finished++
				if finished == len(moves) {
					cres.TotalTime = k.Now() - start
					onDone(cres)
					return
				}
				launch()
			})
		}
	}
	if len(moves) == 0 {
		k.Schedule(0, func() { onDone(cres) })
		return
	}
	launch()
}
