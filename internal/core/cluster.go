package core

import (
	"fmt"
	"sort"

	"repro/internal/mapreduce"
	"repro/internal/migration"
	"repro/internal/nimbus"
	"repro/internal/vm"
)

// ClusterSpec describes a virtual cluster spanning clouds.
type ClusterSpec struct {
	Image    string
	Cores    int
	MemPages int
	CoW      bool
	Spot     bool
	Bid      float64
	// Slots is MapReduce task slots per VM (default: Cores).
	Slots int
	// Distribution maps cloud name to VM count — the sky-computing spread.
	Distribution map[string]int
}

// VirtualCluster is a set of VMs across clouds acting as one Hadoop-style
// cluster over the ViNe overlay.
type VirtualCluster struct {
	Name string

	f    *Federation
	mr   *mapreduce.Cluster
	vms  []*vm.VM
	spec ClusterSpec
	seq  int
}

// CreateCluster provisions a virtual cluster per spec: parallel deployments
// on every member cloud, overlay registration, and MapReduce worker setup.
func (f *Federation) CreateCluster(name string, spec ClusterSpec, onDone func(*VirtualCluster, error)) {
	if spec.Slots == 0 {
		spec.Slots = spec.Cores
	}
	vc := &VirtualCluster{Name: name, f: f, mr: mapreduce.NewCluster(f.Net), spec: spec}
	clouds := make([]string, 0, len(spec.Distribution))
	for c := range spec.Distribution {
		clouds = append(clouds, c)
	}
	sort.Strings(clouds)
	pending := len(clouds)
	var firstErr error
	if pending == 0 {
		f.K.Schedule(0, func() { onDone(nil, fmt.Errorf("core: empty cluster distribution")) })
		return
	}
	done := false
	complete := func() {
		// The run-once guard matters when several members fail through the
		// scheduled path (e.g. two unknown clouds): each failure schedules a
		// complete, and all of them fire after pending hits zero.
		if pending != 0 || done {
			return
		}
		done = true
		if firstErr != nil {
			// Members that did deploy are torn down before the error is
			// reported, so a partial gang cannot strand running VMs or
			// leave their cores committed in the capacity ledger.
			vc.Terminate()
			onDone(nil, firstErr)
			return
		}
		onDone(vc, nil)
	}
	for _, cloudName := range clouds {
		cloud := f.clouds[cloudName]
		n := spec.Distribution[cloudName]
		if cloud == nil {
			pending--
			if firstErr == nil {
				firstErr = fmt.Errorf("core: unknown cloud %q", cloudName)
			}
			f.K.Schedule(0, complete)
			continue
		}
		cloud.Deploy(nimbus.DeployRequest{
			NamePrefix: name + "-",
			Count:      n,
			Image:      spec.Image,
			Cores:      spec.Cores,
			MemPages:   spec.MemPages,
			CoW:        spec.CoW,
			Spot:       spec.Spot,
			Bid:        spec.Bid,
		}, func(dep nimbus.Deployment) {
			pending--
			if dep.Err != nil {
				if firstErr == nil {
					firstErr = dep.Err
				}
			} else {
				vc.enroll(cloud, dep.VMs)
			}
			complete()
		})
	}
}

// enroll registers deployed VMs into the federation and the MapReduce layer.
func (vc *VirtualCluster) enroll(cloud *nimbus.Cloud, vms []*vm.VM) {
	vc.f.adoptVMs(cloud, vms)
	for _, v := range vms {
		h := cloud.HostOf(v.Name)
		vc.mr.AddWorker(v.Name, h.Node, cloud.HostSpeed(), vc.spec.Slots)
		vc.vms = append(vc.vms, v)
	}
}

// MapReduce exposes the cluster's execution framework.
func (vc *VirtualCluster) MapReduce() *mapreduce.Cluster { return vc.mr }

// VMs returns the cluster's live VMs.
func (vc *VirtualCluster) VMs() []*vm.VM {
	out := make([]*vm.VM, 0, len(vc.vms))
	for _, v := range vc.vms {
		if v.State != vm.StateTerminated {
			out = append(out, v)
		}
	}
	return out
}

// VMsAt returns the cluster's VM names on the given cloud, sorted.
func (vc *VirtualCluster) VMsAt(cloud string) []string {
	var out []string
	for _, v := range vc.VMs() {
		if c := vc.f.CloudOf(v.Name); c != nil && c.Name == cloud {
			out = append(out, v.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Size returns the number of live VMs.
func (vc *VirtualCluster) Size() int { return len(vc.VMs()) }

// RunJob executes a MapReduce job on the cluster.
func (vc *VirtualCluster) RunJob(job mapreduce.Job, onDone func(mapreduce.Result)) error {
	return vc.mr.Run(job, onDone)
}

// Grow adds n VMs on the named cloud and enrolls them as workers — the
// dynamic cluster-size adjustment of §II. New VMs inherit the cluster
// spec's pricing model (spot or on-demand).
func (vc *VirtualCluster) Grow(cloud string, n int, onDone func(error)) {
	vc.grow(cloud, n, vc.spec.Spot, vc.spec.Bid, func(_ []string, err error) { onDone(err) })
}

// GrowOnDemand adds n on-demand (non-revocable) VMs regardless of the
// cluster spec — how a user replaces lost spot capacity with firm capacity.
func (vc *VirtualCluster) GrowOnDemand(cloud string, n int, onDone func(error)) {
	vc.grow(cloud, n, false, 0, func(_ []string, err error) { onDone(err) })
}

// grow reports the names of the VMs it enrolled so multi-cloud growers can
// roll back exactly those workers on partial failure, leaving busy base
// workers untouched.
func (vc *VirtualCluster) grow(cloud string, n int, spot bool, bid float64, onDone func([]string, error)) {
	c := vc.f.clouds[cloud]
	if c == nil {
		vc.f.K.Schedule(0, func() { onDone(nil, fmt.Errorf("core: unknown cloud %q", cloud)) })
		return
	}
	vc.seq++
	c.Deploy(nimbus.DeployRequest{
		NamePrefix: fmt.Sprintf("%s-g%d-", vc.Name, vc.seq),
		Count:      n,
		Image:      vc.spec.Image,
		Cores:      vc.spec.Cores,
		MemPages:   vc.spec.MemPages,
		CoW:        vc.spec.CoW,
		Spot:       spot,
		Bid:        bid,
	}, func(dep nimbus.Deployment) {
		if dep.Err != nil {
			onDone(nil, dep.Err)
			return
		}
		vc.enroll(c, dep.VMs)
		names := make([]string, len(dep.VMs))
		for i, v := range dep.VMs {
			names[i] = v.Name
		}
		onDone(names, nil)
	})
}

// Shrink removes up to n workers from the named cloud (releasing their VMs)
// and returns how many were removed. Running tasks are requeued by the
// MapReduce layer.
func (vc *VirtualCluster) Shrink(cloud string, n int) int {
	names := vc.VMsAt(cloud)
	removed := 0
	for _, name := range names {
		if removed >= n {
			break
		}
		vc.removeWorker(name)
		removed++
	}
	return removed
}

// removeWorker drops one named worker from the cluster, requeueing its
// tasks and releasing its VM.
func (vc *VirtualCluster) removeWorker(name string) {
	vc.mr.RemoveWorker(name)
	vc.f.releaseVM(vc.f.VM(name))
}

// MigrateWorkers live-migrates cluster members to dstCloud while the
// cluster keeps computing (the §III-C scenario: relocating subsets of a
// virtual cluster). Each VM goes through the secure inter-cloud handshake,
// the atomic committed-core retarget, and overlay reconfiguration
// (MigrateVM), with the shared destination registry deduplicating
// inter-VM content across the set. Worker node bindings are updated at
// completion so future shuffle traffic uses the new location.
func (vc *VirtualCluster) MigrateWorkers(names []string, dstCloud string, concurrency int,
	onDone func([]migration.Result, error)) {
	vc.f.MigrateSet(names, dstCloud, DefaultMigrate(), concurrency, func(rs []migration.Result, err error) {
		dst := vc.f.clouds[dstCloud]
		if dst != nil {
			for _, name := range names {
				if h := dst.HostOf(name); h != nil {
					vc.mr.MoveWorker(name, h.Node)
				}
			}
		}
		if onDone != nil {
			onDone(rs, err)
		}
	})
}

// evictAll tears every live VM down through the ledger-skipping release:
// the preemption's Ledger.EvictCommitted already moved the committed cores
// into the beneficiary's shield reservations, so the normal Terminate path
// would Uncommit a second time.
func (vc *VirtualCluster) evictAll() {
	for _, v := range vc.VMs() {
		vc.mr.RemoveWorker(v.Name)
		vc.f.releaseVMLedgered(v)
	}
}

// WireSpotKill installs the classic spot behaviour on a cloud, integrated
// with this cluster: a revoked VM is killed and its worker removed (losing
// its in-progress and unfetched map work) — the baseline §IV's migratable
// spot instances improve on.
func (vc *VirtualCluster) WireSpotKill(cloud string) {
	c := vc.f.clouds[cloud]
	if c == nil {
		panic("core: unknown cloud " + cloud)
	}
	c.Spot.OnRevoke = func(v *vm.VM) {
		vc.f.SpotKills++
		vc.mr.RemoveWorker(v.Name)
		vc.f.releaseVM(v)
	}
}

// WireSpotMigration installs §IV's migratable-spot behaviour integrated with
// this cluster: a revoked VM live-migrates to the cheapest other cloud with
// capacity and its worker is rebound there, so the job keeps its work.
// Falls back to kill when no cloud can host the VM.
func (vc *VirtualCluster) WireSpotMigration(cloud string) {
	c := vc.f.clouds[cloud]
	if c == nil {
		panic("core: unknown cloud " + cloud)
	}
	c.Spot.OnRevoke = func(v *vm.VM) {
		target := ""
		best := -1.0
		for _, other := range vc.f.Clouds() {
			if other == c || other.FreeCores() < v.Cores {
				continue
			}
			p := vc.f.PriceOf(other.Name)
			if best < 0 || p < best {
				best, target = p, other.Name
			}
		}
		if target == "" {
			vc.f.SpotKills++
			vc.mr.RemoveWorker(v.Name)
			vc.f.releaseVM(v)
			return
		}
		vc.f.SpotMigrations++
		vc.f.MigrateVM(v.Name, target, DefaultMigrate(), func(_ migration.Result, err error) {
			if err != nil {
				return
			}
			if h := vc.f.clouds[target].HostOf(v.Name); h != nil {
				vc.mr.MoveWorker(v.Name, h.Node)
			}
		})
	}
}

// TerminateVM kills one VM by name, releasing its resources and overlay
// address.
func (f *Federation) TerminateVM(name string) {
	if v := f.VM(name); v != nil {
		f.releaseVM(v)
	}
}

// Terminate releases every VM in the cluster.
func (vc *VirtualCluster) Terminate() {
	for _, v := range vc.VMs() {
		vc.mr.RemoveWorker(v.Name)
		vc.f.releaseVM(v)
	}
}
