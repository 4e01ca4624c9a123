// Package core is the paper's unifying layer: a sky-computing federation of
// Nimbus-style clouds behind one provisioning interface (§II), virtual
// clusters spanning clouds over a ViNe overlay, live migration at the cloud
// API level with a secure inter-cloud handshake (§IV), migratable spot
// instances (§IV), and the autonomic adaptation loop that ties the
// communication-pattern detector to migration decisions (§III-C).
package core

import (
	"fmt"
	"sort"

	"repro/internal/autonomic"
	"repro/internal/capacity"
	"repro/internal/dedup"
	"repro/internal/migration"
	"repro/internal/netmon"
	"repro/internal/nimbus"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/secure"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vine"
	"repro/internal/vm"
)

// Federation is a set of clouds joined by a WAN and a virtual network
// overlay, managed through one API.
type Federation struct {
	K       *sim.Kernel
	Net     *simnet.Network
	Overlay *vine.Overlay

	clouds map[string]*nimbus.Cloud
	vms    map[string]*managedVM
	vipSeq int

	// ledger is the federation-wide capacity ledger: every member cloud's
	// admissions, the scheduler's backfill reservations, and elastic-growth
	// probes share these accounts (see internal/capacity).
	ledger *capacity.Ledger

	monitor *netmon.Monitor
	engine  *autonomic.Engine

	// sched is the federation-wide job scheduler (see EnableScheduler).
	sched        *sched.Scheduler
	schedBackend *fedBackend

	// Auth is the federation certificate authority; Broker establishes the
	// §IV mutually authenticated channels between hypervisors before any
	// migration traffic flows.
	Auth   *secure.Authority
	Broker *secure.Broker
	creds  map[string]secure.Credential

	// UseShrinker enables content-based-addressing dedup (against the
	// destination cloud's site registry) for every federation migration.
	UseShrinker bool

	// Obs is the federation-wide metrics registry: the capacity ledger,
	// every member cloud, and the scheduler (unless Config.Obs overrides)
	// register their instruments here, so one scrape covers the whole stack.
	Obs *obs.Registry

	// Stats.
	Migrations     int
	MigrationBytes int64
	SpotMigrations int
	SpotKills      int

	m coreMetrics
}

type managedVM struct {
	vm    *vm.VM
	cloud *nimbus.Cloud
}

// NewFederation creates a federation with a fresh kernel and network.
func NewFederation(seed int64) *Federation {
	k := sim.NewKernel(seed)
	net := simnet.New(k)
	auth := secure.NewAuthority(seed ^ 0x5ec)
	reg := obs.NewRegistry()
	f := &Federation{
		K:           k,
		Net:         net,
		Overlay:     vine.New(net),
		clouds:      make(map[string]*nimbus.Cloud),
		vms:         make(map[string]*managedVM),
		ledger:      capacity.New(),
		Auth:        auth,
		Broker:      secure.NewBroker(net, auth, secure.Config{}),
		creds:       make(map[string]secure.Credential),
		UseShrinker: true,
		Obs:         reg,
		m:           newCoreMetrics(reg),
	}
	f.ledger.Instrument(reg)
	return f
}

// AddCloud creates a cloud in the federation, installs its ViNe router,
// and issues its membership credential. The cloud admits against the
// federation-wide capacity ledger.
func (f *Federation) AddCloud(cfg nimbus.Config) *nimbus.Cloud {
	cfg.Ledger = f.ledger
	if cfg.Obs == nil {
		cfg.Obs = f.Obs
	}
	c := nimbus.New(f.Net, cfg)
	f.clouds[cfg.Name] = c
	vr := c.Site.AddNode(cfg.Name+"/vine-router", 1<<30)
	f.Overlay.AddRouter(vr)
	f.creds[cfg.Name] = f.Auth.Issue(cfg.Name)
	return c
}

// RevokeCloud invalidates a cloud's credential and cached secure sessions:
// it can no longer take part in migrations (§IV's "without intrusion in the
// destination cloud" — a compromised or expelled member is cut off).
func (f *Federation) RevokeCloud(name string) {
	f.Auth.Revoke(name)
	f.Broker.Invalidate(name)
	delete(f.creds, name)
}

// Cloud returns a cloud by name, or nil.
func (f *Federation) Cloud(name string) *nimbus.Cloud { return f.clouds[name] }

// CapacityLedger returns the federation-wide capacity ledger.
func (f *Federation) CapacityLedger() *capacity.Ledger { return f.ledger }

// Clouds returns the clouds sorted by name.
func (f *Federation) Clouds() []*nimbus.Cloud {
	out := make([]*nimbus.Cloud, 0, len(f.clouds))
	for _, c := range f.clouds {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetWANLatency sets the one-way latency between two clouds.
func (f *Federation) SetWANLatency(a, b string, lat sim.Time) {
	f.Net.SetSiteLatency(a, b, lat)
}

// PriceOf returns a cloud's current price signal: the live spot price when
// the market is running, else the on-demand rate.
func (f *Federation) PriceOf(cloud string) float64 {
	c := f.clouds[cloud]
	if c == nil {
		return 0
	}
	if c.Spot != nil && c.Spot.Watched() > 0 {
		return c.Spot.Price
	}
	return c.Price()
}

// VM returns a managed VM by name, or nil.
func (f *Federation) VM(name string) *vm.VM {
	if m, ok := f.vms[name]; ok {
		return m.vm
	}
	return nil
}

// CloudOf returns the cloud currently hosting the named VM, or nil.
func (f *Federation) CloudOf(name string) *nimbus.Cloud {
	if m, ok := f.vms[name]; ok {
		return m.cloud
	}
	return nil
}

// VMNames returns all managed VM names, sorted.
func (f *Federation) VMNames() []string {
	out := make([]string, 0, len(f.vms))
	for n := range f.vms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// adoptVMs registers freshly deployed VMs with the federation: overlay
// virtual IPs and placement tracking.
func (f *Federation) adoptVMs(c *nimbus.Cloud, vms []*vm.VM) {
	for _, v := range vms {
		f.vipSeq++
		v.VirtualIP = fmt.Sprintf("10.128.%d.%d", f.vipSeq/256, f.vipSeq%256)
		h := c.HostOf(v.Name)
		f.Overlay.RegisterVM(v.VirtualIP, h.Node)
		f.vms[v.Name] = &managedVM{vm: v, cloud: c}
	}
}

// releaseVM removes a VM from federation management (termination).
func (f *Federation) releaseVM(v *vm.VM) {
	if m, ok := f.vms[v.Name]; ok {
		m.cloud.Terminate(v)
		f.Overlay.Unregister(v.VirtualIP)
		delete(f.vms, v.Name)
	}
}

// releaseVMLedgered removes a VM whose ledger transition already happened
// (a preemption ran Ledger.EvictCommitted first): host accounting, overlay,
// and federation tracking only — no second Uncommit.
func (f *Federation) releaseVMLedgered(v *vm.VM) {
	if m, ok := f.vms[v.Name]; ok {
		m.cloud.ReleaseLedgered(v)
		v.State = vm.StateTerminated
		f.Overlay.Unregister(v.VirtualIP)
		delete(f.vms, v.Name)
	}
}

// unwindRetarget returns an admitted-but-unmigrated VM to its source cloud
// after its destination host accounting was already released: the committed
// cores retarget back and the VM re-places on a source host. Either step
// can fail if capacity moved during the async handshake window — then the
// cores are returned to the pool (never left stranded committed on a cloud
// with nothing to Uncommit them) and the VM stays host-less, exactly the
// ghost the pre-Retarget rollback produced in the same squeeze.
func (f *Federation) unwindRetarget(src, dst *nimbus.Cloud, v *vm.VM) {
	if err := f.ledger.Retarget(dst.Name, src.Name, v.Cores); err != nil {
		f.ledger.Uncommit(dst.Name, v.Cores)
		src.Adopt(v) // best-effort re-admission through normal commit
		return
	}
	if src.AdoptLedgered(v) == nil {
		f.ledger.Uncommit(src.Name, v.Cores)
	}
}

// MigrateOptions tunes a federation-level migration.
type MigrateOptions struct {
	// Reconfigure runs the ViNe route update at completion.
	Reconfigure bool
}

// DefaultMigrate is live migration with overlay reconfiguration — the full
// mechanism the thesis assembles.
func DefaultMigrate() MigrateOptions {
	return MigrateOptions{Reconfigure: true}
}

// MigrateVM live-migrates a VM to another cloud through the cloud API
// (§IV: "adding support for live migration at the cloud API level"):
// pre-copy, with the disk image (the clouds share no storage), the secure
// inter-cloud handshake, Shrinker dedup against the destination's registry
// (when UseShrinker), and overlay reconfiguration.
func (f *Federation) MigrateVM(name, dstCloud string, opts MigrateOptions, onDone func(migration.Result, error)) {
	finish := func(r migration.Result, err error) {
		if onDone != nil {
			onDone(r, err)
		}
	}
	m, ok := f.vms[name]
	if !ok {
		f.K.Schedule(0, func() { finish(migration.Result{}, fmt.Errorf("core: unknown VM %q", name)) })
		return
	}
	dst, ok := f.clouds[dstCloud]
	if !ok {
		f.K.Schedule(0, func() { finish(migration.Result{}, fmt.Errorf("core: unknown cloud %q", dstCloud)) })
		return
	}
	src := m.cloud
	if src == dst {
		f.K.Schedule(0, func() { finish(migration.Result{}, fmt.Errorf("core: VM %q already at %s", name, dstCloud)) })
		return
	}
	srcHost := src.HostOf(name)
	if srcHost == nil {
		f.K.Schedule(0, func() { finish(migration.Result{}, fmt.Errorf("core: VM %q has no host at %s", name, src.Name)) })
		return
	}
	// Admission at the destination before moving bytes: one atomic ledger
	// transition (the VM's committed cores retarget src→dst), then host
	// bookkeeping through the ledger-skipping paths. A failed admission
	// touches nothing, and no instant exists between the source release and
	// the destination commit for a concurrent deploy to take the cores —
	// the release+acquire race the ledger's Retarget exists to close.
	v := m.vm
	if !dst.CanHost(v) {
		f.K.Schedule(0, func() { finish(migration.Result{}, fmt.Errorf("core: cloud %s cannot host %s", dstCloud, name)) })
		return
	}
	if err := f.ledger.Retarget(src.Name, dst.Name, v.Cores); err != nil {
		f.K.Schedule(0, func() {
			finish(migration.Result{}, fmt.Errorf("core: cloud %s cannot host %s: %v", dstCloud, name, err))
		})
		return
	}
	src.ReleaseLedgered(v)
	dstHost := dst.AdoptLedgered(v)
	if dstHost == nil { // unreachable after CanHost; defensive roll back
		f.unwindRetarget(src, dst, v)
		f.K.Schedule(0, func() { finish(migration.Result{}, fmt.Errorf("core: cloud %s cannot host %s", dstCloud, name)) })
		return
	}
	var reg *dedup.Registry
	if f.UseShrinker {
		reg = dst.Registry
	}
	mopts := migration.Options{
		Registry:    reg,
		MigrateDisk: true,
		DedupDisk:   f.UseShrinker,
	}
	migStart := f.K.Now()
	run := func() {
		done := func(r migration.Result) {
			m.cloud = dst
			f.Migrations++
			f.MigrationBytes += r.WireBytes
			f.m.migrations.Inc()
			f.m.migrationBytes.Add(r.WireBytes)
			f.m.migrationSeconds.Observe((f.K.Now() - migStart).Seconds())
			f.Overlay.VMMoved(v.VirtualIP, dstHost.Node, opts.Reconfigure, nil)
			finish(r, nil)
		}
		migration.Live(f.Net, v, srcHost.Node, dstHost.Node, mopts, done)
	}
	// §IV secure handshake: mutual authentication between the hypervisors
	// before any VM state crosses the cloud boundary. Rejected credentials
	// abort the migration and roll back the destination reservation.
	f.Broker.Establish(srcHost.Node, dstHost.Node, f.creds[src.Name], f.creds[dst.Name],
		func(_ *secure.Channel, err error) {
			if err != nil {
				dst.ReleaseLedgered(v)
				f.unwindRetarget(src, dst, v)
				finish(migration.Result{}, err)
				return
			}
			run()
		})
}

// MigrateSet migrates several VMs to dstCloud with the given concurrency,
// sharing the destination registry so inter-VM duplicates cross the WAN
// once (Shrinker's virtual-cluster scenario).
func (f *Federation) MigrateSet(names []string, dstCloud string, opts MigrateOptions,
	concurrency int, onDone func([]migration.Result, error)) {
	if concurrency < 1 {
		concurrency = 1
	}
	results := make([]migration.Result, 0, len(names))
	var firstErr error
	idx, inflight := 0, 0
	var pump func()
	pump = func() {
		for inflight < concurrency && idx < len(names) {
			name := names[idx]
			idx++
			inflight++
			f.MigrateVM(name, dstCloud, opts, func(r migration.Result, err error) {
				inflight--
				if err != nil && firstErr == nil {
					firstErr = err
				} else if err == nil {
					results = append(results, r)
				}
				if idx == len(names) && inflight == 0 {
					if onDone != nil {
						onDone(results, firstErr)
					}
					return
				}
				pump()
			})
		}
	}
	if len(names) == 0 {
		f.K.Schedule(0, func() {
			if onDone != nil {
				onDone(nil, nil)
			}
		})
		return
	}
	pump()
}

// EnableMigratableSpot replaces a cloud's spot revocation behaviour: instead
// of killing an out-bid VM, the federation migrates it to the cheapest other
// cloud with capacity (§IV's "migratable spot instances which, instead of
// being killed when their resource allocation is canceled, are allowed to
// migrate to a different cloud"). Falls back to termination when no cloud
// can host it.
func (f *Federation) EnableMigratableSpot(cloud string) {
	c := f.clouds[cloud]
	if c == nil {
		panic("core: unknown cloud " + cloud)
	}
	c.Spot.OnRevoke = func(v *vm.VM) {
		target := f.spotTarget(c, v)
		if target == "" {
			f.killSpot(v)
			return
		}
		f.migrateSpot(v, target, nil)
	}
}

// spotTarget is the migratable-spot target rule: the cheapest cloud other
// than from with free cores for v (ties keep the first by name), or "" when
// none has room.
func (f *Federation) spotTarget(from *nimbus.Cloud, v *vm.VM) string {
	target := ""
	best := -1.0
	for _, other := range f.Clouds() {
		if other == from || other.FreeCores() < v.Cores {
			continue
		}
		p := f.PriceOf(other.Name)
		if best < 0 || p < best {
			best, target = p, other.Name
		}
	}
	return target
}

// killSpot terminates an out-bid spot VM and counts it in SpotKills and
// sky_core_spot_kills_total. Every spot hook kills through it.
func (f *Federation) killSpot(v *vm.VM) {
	f.SpotKills++
	f.m.spotKills.Inc()
	f.releaseVM(v)
}

// migrateSpot live-migrates an out-bid spot VM to target and counts it in
// SpotMigrations and sky_core_spot_migrations_total. Every spot hook
// migrates through it; onDone is MigrateVM's.
func (f *Federation) migrateSpot(v *vm.VM, target string, onDone func(migration.Result, error)) {
	f.SpotMigrations++
	f.m.spotMigrations.Inc()
	f.MigrateVM(v.Name, target, DefaultMigrate(), onDone)
}

// AttachMonitor installs the passive traffic monitor used by the autonomic
// loop (tagPrefix selects the application traffic, e.g. "shuffle:").
func (f *Federation) AttachMonitor(sampleRate float64, tagPrefix string) *netmon.Monitor {
	f.monitor = netmon.New(f.Net, sampleRate, f.K.Rand().Int63(), tagPrefix)
	return f.monitor
}

// Snapshot builds the autonomic monitoring state from live federation data.
func (f *Federation) Snapshot() *autonomic.State {
	s := &autonomic.State{
		Now:       f.K.Now(),
		Price:     make(map[string]float64),
		FreeCores: make(map[string]int),
		VMSite:    make(autonomic.Assignment),
		VMCores:   make(map[string]int),
		Traffic:   make(netmon.Matrix),
	}
	for _, c := range f.Clouds() {
		s.Sites = append(s.Sites, c.Name)
		s.Price[c.Name] = f.PriceOf(c.Name)
		s.FreeCores[c.Name] = c.FreeCores()
	}
	nodeToVM := make(map[string]string)
	for name, m := range f.vms {
		s.VMSite[name] = m.cloud.Name
		s.VMCores[name] = m.vm.Cores
		if h := m.cloud.HostOf(name); h != nil {
			nodeToVM[h.Node.ID] = name
		}
	}
	if f.monitor != nil {
		for e, b := range f.monitor.Matrix() {
			srcVM, ok1 := nodeToVM[e[0]]
			dstVM, ok2 := nodeToVM[e[1]]
			if ok1 && ok2 {
				s.Traffic.Add(srcVM, dstVM, b)
			}
		}
	}
	return s
}

// EnableAutonomic starts the adaptation engine with the given policies,
// executing proposed relocations as federation migrations.
func (f *Federation) EnableAutonomic(interval sim.Time, policies ...autonomic.Policy) *autonomic.Engine {
	f.engine = autonomic.NewEngine(f.K, f.Snapshot, f.executeAction, policies...)
	f.engine.Start(interval)
	return f.engine
}

// executeAction performs one autonomic relocation Action. A VM owned by a
// running scheduler job no longer migrates blind: it routes through the
// scheduler-aware relocation path, which live-migrates the worker, rebinds
// its MapReduce task placement at the new site, and rewrites the job's
// plan and pending-release entries — so an autonomic consolidation
// proposal now adapts *running* gangs, not just future placement. Other
// VMs migrate directly, as before.
func (f *Federation) executeAction(a autonomic.Action) bool {
	m, ok := f.vms[a.VM]
	if !ok || m.cloud.Name != a.From {
		return false
	}
	dst := f.clouds[a.To]
	if dst == nil || dst.FreeCores() < m.vm.Cores {
		return false
	}
	if b := f.schedBackend; b != nil {
		if lj := b.owner[a.VM]; lj != nil && lj.vc != nil {
			b.relocateWorkers(lj, a.From, a.To, []string{a.VM}, true, nil)
			return true
		}
	}
	f.MigrateVM(a.VM, a.To, DefaultMigrate(), nil)
	return true
}

// Engine returns the running autonomic engine (nil before EnableAutonomic).
func (f *Federation) Engine() *autonomic.Engine { return f.engine }
