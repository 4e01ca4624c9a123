// Package nimbus models the Nimbus IaaS cloud toolkit as used in §II of the
// paper: a per-site cloud service exposing a common deployment interface —
// synchronous admission against the shared capacity ledger
// (internal/capacity; cores are held from the instant Deploy is called,
// not from propagation end), image propagation (pluggable strategy:
// unicast, broadcast chain, CoW), VM scheduling onto physical hosts, boot,
// and a contextualization broker that configures freshly booted clusters
// without manual intervention. It also implements a spot market (§IV's
// migratable spot instances hook into its revocation callback).
package nimbus

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/capacity"
	"repro/internal/dedup"
	"repro/internal/deploy"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vm"
)

// HostSpec describes one physical machine class.
type HostSpec struct {
	Cores    int
	MemPages int     // RAM in 4 KiB pages
	Speed    float64 // relative CPU speed (1.0 = reference core)
}

// Host is a physical machine in a cloud.
type Host struct {
	Node *simnet.Node
	Spec HostSpec

	usedCores int
	usedPages int
	vms       map[string]*vm.VM
	cached    map[string]bool // base images present on local disk
}

// FreeCores returns unallocated cores.
func (h *Host) FreeCores() int { return h.Spec.Cores - h.usedCores }

// FreePages returns unallocated memory pages.
func (h *Host) FreePages() int { return h.Spec.MemPages - h.usedPages }

// VMs returns the names of VMs on this host, sorted.
func (h *Host) VMs() []string {
	out := make([]string, 0, len(h.vms))
	for n := range h.vms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Config parameterises a cloud.
type Config struct {
	Name             string
	Hosts            int
	HostSpec         HostSpec
	NICBW            float64 // host NIC, bytes/sec
	WANUp            float64 // site uplink, bytes/sec
	WANDown          float64
	PricePerCoreHour float64
	// Propagation distributes images to hosts; nil means broadcast chain.
	Propagation deploy.Strategy
	// BootDelay is guest boot time once the image is local. Zero = 10 s.
	BootDelay sim.Time
	// ContextualizeDelay is broker processing per round. Zero = 2 s.
	ContextualizeDelay sim.Time
	// Ledger is the capacity ledger this cloud's admissions debit. Nil
	// creates a private single-cloud ledger; a federation passes its shared
	// ledger so schedulers and growers see one account of truth.
	Ledger *capacity.Ledger
	// Obs is the metrics registry for admission and lifecycle counters;
	// a federation passes its shared registry. Nil disables them.
	Obs *obs.Registry
}

// Cloud is one IaaS site.
type Cloud struct {
	Name string
	Site *simnet.Site
	Net  *simnet.Network

	// Registry is the site-wide content registry Shrinker consults when
	// this cloud is a migration destination.
	Registry *dedup.Registry
	// Store caches base images at the site repository.
	Store *deploy.Store

	cfg      Config
	hosts    []*Host
	repoNode *simnet.Node
	ledger   *capacity.Ledger
	seq      int

	// failNext counts injected transient deploy failures still pending:
	// while positive, Deploy consumes one per call and fails with
	// ErrTransientDeploy before debiting anything (see FailNextDeploys).
	failNext int

	// Spot is the cloud's spot market (always present; unused unless VMs
	// are deployed with Spot: true).
	Spot *SpotMarket

	// CoreSecondsUsed accumulates billed on-demand core-time.
	CoreSecondsUsed float64
	lastAccounting  sim.Time
	runningCores    int

	m nimbusMetrics
}

// New builds a cloud as a new site on the network.
func New(net *simnet.Network, cfg Config) *Cloud {
	if cfg.Hosts <= 0 {
		panic("nimbus: cloud needs hosts")
	}
	if cfg.BootDelay == 0 {
		cfg.BootDelay = 10 * sim.Second
	}
	if cfg.ContextualizeDelay == 0 {
		cfg.ContextualizeDelay = 2 * sim.Second
	}
	if cfg.Propagation == nil {
		cfg.Propagation = deploy.Chain{}
	}
	site := net.AddSite(cfg.Name, cfg.WANUp, cfg.WANDown)
	c := &Cloud{
		Name:     cfg.Name,
		Site:     site,
		Net:      net,
		Registry: dedup.NewRegistry("site:" + cfg.Name),
		Store:    deploy.NewStore(cfg.Name),
		cfg:      cfg,
		repoNode: site.AddNode(cfg.Name+"/repo", cfg.NICBW),
	}
	for i := 0; i < cfg.Hosts; i++ {
		n := site.AddNode(fmt.Sprintf("%s/host%03d", cfg.Name, i), cfg.NICBW)
		c.hosts = append(c.hosts, &Host{
			Node:   n,
			Spec:   cfg.HostSpec,
			vms:    make(map[string]*vm.VM),
			cached: make(map[string]bool),
		})
	}
	if cfg.Ledger == nil {
		cfg.Ledger = capacity.New()
	}
	c.ledger = cfg.Ledger
	c.ledger.AddCloud(cfg.Name, cfg.Hosts*cfg.HostSpec.Cores)
	c.Spot = newSpotMarket(c, cfg.PricePerCoreHour*0.3)
	c.m = newNimbusMetrics(cfg.Obs, cfg.Name)
	return c
}

// Hosts returns the cloud's hosts.
func (c *Cloud) Hosts() []*Host { return c.hosts }

// RepoNode returns the image repository's network node.
func (c *Cloud) RepoNode() *simnet.Node { return c.repoNode }

// Price returns the on-demand price per core-hour.
func (c *Cloud) Price() float64 { return c.cfg.PricePerCoreHour }

// FreeCores returns the cloud's unallocated cores, answered by the
// capacity ledger (which host-level accounting double-enters: cores are
// held from deploy admission, committed at VM placement).
func (c *Cloud) FreeCores() int { return c.ledger.Free(c.Name) }

// TotalCores returns the cloud's core capacity.
func (c *Cloud) TotalCores() int { return c.ledger.Total(c.Name) }

// Ledger returns the capacity ledger this cloud's admissions debit.
func (c *Cloud) Ledger() *capacity.Ledger { return c.ledger }

// HostSpeed returns the relative CPU speed of the cloud's hosts.
func (c *Cloud) HostSpeed() float64 {
	if c.cfg.HostSpec.Speed <= 0 {
		return 1
	}
	return c.cfg.HostSpec.Speed
}

// PutImage seeds the site repository with a base image and indexes its
// blocks in the site registry (content-based addressing over the image
// store, as Shrinker assumes).
func (c *Cloud) PutImage(img *vm.DiskImage) {
	c.Store.Put(img)
	c.Registry.SeedFromDisk(img)
}

// accrue updates the billed core-seconds to now.
func (c *Cloud) accrue() {
	now := c.Net.K.Now()
	c.CoreSecondsUsed += float64(c.runningCores) * (now - c.lastAccounting).Seconds()
	c.lastAccounting = now
}

// Cost returns accumulated compute cost in dollars at the on-demand rate.
func (c *Cloud) Cost() float64 {
	c.accrue()
	return c.CoreSecondsUsed / 3600 * c.cfg.PricePerCoreHour
}

// ErrTransientDeploy marks a deploy failure worth retrying: the fault
// injector (FailNextDeploys) wraps it. The federation's scheduler backend
// passes a failed launch on to the scheduler as a transient launch failure,
// which re-places the job after a backoff, and retries a failed elastic
// grow itself.
var ErrTransientDeploy = errors.New("nimbus: transient deploy failure")

// FailNextDeploys makes the next n Deploy calls on this cloud fail with
// ErrTransientDeploy before any admission debit. It is the federation's
// deploy-fault hook; trace replays run on sched.SimBackend and drive its
// FailNextLaunches instead.
func (c *Cloud) FailNextDeploys(n int) { c.failNext += n }

// DeployRequest asks for a homogeneous set of VMs.
type DeployRequest struct {
	NamePrefix string
	Count      int
	Image      string // must be in the site Store
	Cores      int
	MemPages   int
	// ZeroFrac/SharedFrac/PoolSize parameterise the VMs' memory content
	// redundancy (see vm.ContentModel). Zero values get literature defaults
	// (15% zero, 40% shared).
	ZeroFrac, SharedFrac float64
	PoolSize             int
	// CoW creates disks as copy-on-write clones (near-instant when the
	// base is cached on the host).
	CoW bool
	// Spot requests revocable instances at the given bid ($/core-hour).
	Spot bool
	Bid  float64
}

func (r DeployRequest) withDefaults() DeployRequest {
	if r.ZeroFrac == 0 && r.SharedFrac == 0 {
		r.ZeroFrac, r.SharedFrac = 0.15, 0.40
	}
	if r.PoolSize == 0 {
		r.PoolSize = 4096
	}
	if r.Cores == 0 {
		r.Cores = 1
	}
	if r.MemPages == 0 {
		r.MemPages = 16384 // 64 MiB default keeps experiments fast
	}
	return r
}

// Deployment reports a completed Deploy.
type Deployment struct {
	VMs             []*vm.VM
	PlacedOn        []*Host
	PropagationTime sim.Time
	ReadyTime       sim.Time // request to all-VMs-running
	Err             error
}

// Deploy provisions req.Count VMs: admit → propagate → boot →
// contextualize → running. onDone receives the deployment (with Err set on
// failure). Admission is synchronous: host cores and pages are debited (and
// the capacity ledger charged) the instant Deploy is called, not when image
// propagation ends — so a second deploy, a migration, or an elastic grow
// arriving during the propagation window sees the truth and cannot
// double-book the cores.
func (c *Cloud) Deploy(req DeployRequest, onDone func(Deployment)) {
	req = req.withDefaults()
	k := c.Net.K
	if c.failNext > 0 {
		// Injected transient fault: fail before any host or ledger debit, so
		// the caller's retry sees the cloud exactly as it was.
		c.failNext--
		c.m.deployFaulted.Inc()
		k.Schedule(0, func() {
			onDone(Deployment{Err: fmt.Errorf("nimbus: %s deploy fault: %w", c.Name, ErrTransientDeploy)})
		})
		return
	}
	start := k.Now()
	base := c.Store.Get(req.Image)
	if base == nil {
		c.m.deployImageMissing.Inc()
		k.Schedule(0, func() {
			onDone(Deployment{Err: fmt.Errorf("nimbus: image %q not in %s repository", req.Image, c.Name)})
		})
		return
	}
	// First-fit scheduling, one host may take several VMs. Each chosen host
	// is debited immediately; a request that cannot be placed in full rolls
	// every debit back before failing.
	placement := make([]*Host, 0, req.Count)
	rollback := func() {
		for _, h := range placement {
			h.usedCores -= req.Cores
			h.usedPages -= req.MemPages
		}
	}
	for i := 0; i < req.Count; i++ {
		var chosen *Host
		for _, h := range c.hosts {
			if h.FreeCores() >= req.Cores && h.FreePages() >= req.MemPages {
				chosen = h
				break
			}
		}
		if chosen == nil {
			rollback()
			c.m.deployRejected.Inc()
			k.Schedule(0, func() {
				onDone(Deployment{Err: fmt.Errorf("nimbus: %s cannot place %d VMs (%d cores free)",
					c.Name, req.Count, c.FreeCores())})
			})
			return
		}
		chosen.usedCores += req.Cores
		chosen.usedPages += req.MemPages
		placement = append(placement, chosen)
	}
	lease, err := c.ledger.Acquire(c.Name, req.Count*req.Cores)
	if err != nil {
		// Host accounting and the ledger disagree — roll back and surface it.
		rollback()
		c.m.deployRejected.Inc()
		k.Schedule(0, func() {
			onDone(Deployment{Err: fmt.Errorf("nimbus: %s admission: %w", c.Name, err)})
		})
		return
	}
	// Which hosts still need the image?
	needSet := make(map[*Host]bool)
	for _, h := range placement {
		if !h.cached[req.Image] {
			needSet[h] = true
		}
	}
	need := make([]*simnet.Node, 0, len(needSet))
	hostsNeeding := make([]*Host, 0, len(needSet))
	for _, h := range c.hosts { // deterministic order
		if needSet[h] {
			need = append(need, h.Node)
			hostsNeeding = append(hostsNeeding, h)
		}
	}
	afterPropagation := func(propTime sim.Time) {
		dep := Deployment{PlacedOn: placement, PropagationTime: propTime}
		// Create + boot + contextualize.
		vms := make([]*vm.VM, req.Count)
		for i := 0; i < req.Count; i++ {
			c.seq++
			name := fmt.Sprintf("%s%s-%04d", req.NamePrefix, c.Name, c.seq)
			model := vm.NewContentModel(k.Rand().Int63(), req.Image, req.ZeroFrac, req.SharedFrac, req.PoolSize)
			var disk *vm.DiskImage
			if req.CoW {
				disk = vm.NewCoWImage(name+"-disk", base)
			} else {
				disk = vm.NewDiskImage(name+"-disk", base.NumBlocks(), base.BlockSize, model)
			}
			v := vm.New(name, req.Image, req.Cores, req.MemPages, model, disk)
			v.Spot = req.Spot
			v.Bid = req.Bid
			h := placement[i]
			c.bind(v, h)
			v.State = vm.StateBooting
			c.m.vmBooting.Inc()
			vms[i] = v
		}
		// Placement landed: the admission lease converts to committed cores.
		lease.Commit()
		c.m.deployPlaced.Inc()
		dep.VMs = vms
		// CoW creation is near-instant; full-copy disks take a local clone
		// pass at NIC speed (image already on host, copy base->instance).
		perVMCreate := c.Store.CowCreateLatency
		if !req.CoW {
			perVMCreate = sim.FromSeconds(float64(base.Bytes()) / c.cfg.NICBW)
		}
		k.Schedule(perVMCreate+c.cfg.BootDelay, func() {
			c.contextualize(vms, func() {
				for _, v := range vms {
					v.State = vm.StateRunning
					c.m.vmRunning.Inc()
				}
				if req.Spot {
					c.Spot.watch(vms)
				}
				dep.ReadyTime = k.Now() - start
				onDone(dep)
			})
		})
	}
	if len(need) == 0 {
		afterPropagation(0)
		return
	}
	pstart := k.Now()
	c.cfg.Propagation.Propagate(c.Net, c.repoNode, need, base.Bytes(), func(deploy.Result) {
		for _, h := range hostsNeeding {
			h.cached[req.Image] = true
		}
		afterPropagation(k.Now() - pstart)
	})
}

// bind attaches an admitted VM to its host and starts billing its cores.
// The capacity itself was debited at admission (Deploy or Adopt) — bind
// only materialises the VM and begins the on-demand meter.
func (c *Cloud) bind(v *vm.VM, h *Host) {
	c.accrue()
	h.vms[v.Name] = v
	v.HostID = h.Node.ID
	v.SiteName = c.Name
	c.runningCores += v.Cores
}

// Release frees v's resources on this cloud (termination or migration away).
func (c *Cloud) Release(v *vm.VM) {
	if c.releaseHost(v) {
		c.ledger.Uncommit(c.Name, v.Cores)
	}
}

// ReleaseLedgered frees v's host resources without touching the capacity
// ledger — the teardown half of a forced transition
// (capacity.Ledger.EvictCommitted, capacity.Ledger.Retarget) whose ledger
// side already happened in one atomic step. Using Release here instead
// would Uncommit a second time and mint capacity.
func (c *Cloud) ReleaseLedgered(v *vm.VM) {
	c.releaseHost(v)
}

// releaseHost frees v's host cores/pages and stops its billing, reporting
// whether the VM was found here.
func (c *Cloud) releaseHost(v *vm.VM) bool {
	for _, h := range c.hosts {
		if _, ok := h.vms[v.Name]; ok {
			c.accrue()
			h.usedCores -= v.Cores
			h.usedPages -= v.Mem.NumPages()
			delete(h.vms, v.Name)
			c.runningCores -= v.Cores
			return true
		}
	}
	return false
}

// hostFor returns the first host with room for the VM, or nil.
func (c *Cloud) hostFor(v *vm.VM) *Host {
	for _, h := range c.hosts {
		if h.FreeCores() >= v.Cores && h.FreePages() >= v.Mem.NumPages() {
			return h
		}
	}
	return nil
}

// CanHost reports whether some host has room for the VM — the host-level
// precheck callers run before an atomic ledger retarget.
func (c *Cloud) CanHost(v *vm.VM) bool { return c.hostFor(v) != nil }

// Adopt places an inbound migrated VM onto a host with capacity and returns
// that host (nil if the cloud is full). The caller performs the actual
// migration transfer; Adopt only does admission + bookkeeping. Admission
// and placement are one instant here, so the ledger is charged and
// committed in a single step.
func (c *Cloud) Adopt(v *vm.VM) *Host {
	h := c.hostFor(v)
	if h == nil {
		return nil
	}
	if err := c.ledger.CommitNow(c.Name, v.Cores); err != nil {
		return nil
	}
	h.usedCores += v.Cores
	h.usedPages += v.Mem.NumPages()
	c.bind(v, h)
	return h
}

// AdoptLedgered places an inbound VM whose ledger transition already
// happened (capacity.Ledger.Retarget moved its committed cores here
// atomically with the source release) — host-level placement and billing
// only. nil only if no host has room, which CanHost rules out beforehand.
func (c *Cloud) AdoptLedgered(v *vm.VM) *Host {
	h := c.hostFor(v)
	if h == nil {
		return nil
	}
	h.usedCores += v.Cores
	h.usedPages += v.Mem.NumPages()
	c.bind(v, h)
	return h
}

// HostOf returns the host running the named VM, or nil.
func (c *Cloud) HostOf(name string) *Host {
	for _, h := range c.hosts {
		if _, ok := h.vms[name]; ok {
			return h
		}
	}
	return nil
}

// Terminate stops and removes a VM.
func (c *Cloud) Terminate(v *vm.VM) {
	c.Release(v)
	v.State = vm.StateTerminated
	c.m.vmTerminated.Inc()
}

// contextualize runs the Nimbus contextualization broker exchange: every VM
// reports its identity to the broker (repo node), which assembles the
// cluster context and pushes it back — two control messages per VM plus
// broker processing, all concurrent.
func (c *Cloud) contextualize(vms []*vm.VM, onDone func()) {
	k := c.Net.K
	if len(vms) == 0 {
		k.Schedule(0, onDone)
		return
	}
	pending := len(vms)
	for _, v := range vms {
		v.State = vm.StateContextualizing
		c.m.vmContextualizing.Inc()
		h := c.HostOf(v.Name)
		c.Net.SendMessage(h.Node, c.repoNode, 2048, func() {
			pending--
			if pending == 0 {
				// Broker processes and broadcasts the assembled context.
				k.Schedule(c.cfg.ContextualizeDelay, func() {
					replies := len(vms)
					for _, v := range vms {
						h := c.HostOf(v.Name)
						c.Net.SendMessage(c.repoNode, h.Node, 4096, func() {
							replies--
							if replies == 0 {
								onDone()
							}
						})
					}
				})
			}
		})
	}
}
