// Package simnet is a flow-level network simulator built on the sim kernel.
//
// The topology models a set of sites (clouds) connected by a wide-area
// network. Each node has a NIC of finite bandwidth; each site has a WAN
// uplink and downlink shared by all cross-site traffic. Bulk transfers are
// flows: their instantaneous rates follow max-min fair sharing over every
// link on their path. Max-min sharing decomposes over connected components
// (flows linked by shared links, directly or through a chain of them), so
// when a flow starts, finishes or is cancelled only the rates in its
// component are recomputed; every other flow's rate is unchanged. The
// network keeps one kernel event pending, for the earliest completion among
// its active flows (see Network.reschedule). Control traffic uses
// SendMessage, which models propagation latency plus uncontended
// serialisation delay.
//
// The simulator accounts bytes per link and per site pair, which is how the
// WAN-billing numbers in the paper's Shrinker and autonomic-adaptation
// experiments are produced.
package simnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Link is a unidirectional capacity-constrained resource.
type Link struct {
	Name     string
	Capacity float64 // bytes per second
	Bytes    int64   // total bytes carried to completion

	flows []*Flow // active flows on the link, in start order

	// Water-filling scratch, valid while epoch equals Network.epoch.
	epoch    uint64
	rem      float64
	unfrozen int
}

func newLink(name string, capacity float64) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("simnet: link %s has non-positive capacity", name))
	}
	return &Link{Name: name, Capacity: capacity}
}

// ActiveFlows returns the number of flows currently traversing the link.
func (l *Link) ActiveFlows() int { return len(l.flows) }

// Site is a cloud location: a LAN of nodes behind a WAN uplink/downlink.
type Site struct {
	Name    string
	Up      *Link // WAN egress shared by all cross-site flows leaving the site
	Down    *Link // WAN ingress
	LANLat  sim.Time
	nodes   map[string]*Node
	network *Network
}

// Nodes returns the site's nodes sorted by ID (deterministic order).
func (s *Site) Nodes() []*Node {
	out := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Node is an endpoint (a physical host or a service) with a NIC.
type Node struct {
	ID   string
	Site *Site
	Out  *Link // NIC egress
	In   *Link // NIC ingress
}

// FlowEvent describes a flow starting or finishing, for observers
// (the netmon package's hypervisor-level packet capture hooks into this).
type FlowEvent struct {
	Start    bool
	Src, Dst *Node
	Bytes    int64 // requested size (Start) or bytes actually carried (end)
	Tag      string
	At       sim.Time
}

// Flow is an in-progress bulk transfer.
type Flow struct {
	Src, Dst *Node
	Tag      string

	total     int64
	remaining float64
	rate      float64 // bytes/sec, set by the fair-share computation
	last      sim.Time
	latency   sim.Time
	links     []*Link
	pathBuf   [4]*Link // backs links
	done      func()
	network   *Network
	finished  bool
	seq       uint64 // start order; breaks completion-key ties
	epoch     uint64 // component-walk mark, see Network.recompute
}

// Remaining returns the bytes not yet transferred.
func (f *Flow) Remaining() int64 { return int64(math.Ceil(f.remaining)) }

// Rate returns the current fair-share rate in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

// Network is the simulated internetwork.
type Network struct {
	K *sim.Kernel

	sites   map[string]*Site
	siteLat map[[2]string]sim.Time

	// active holds the in-flight flows in completion-scheduling order
	// (see flowOrder).
	active    []*Flow
	flowSeq   uint64
	wanBytes  map[[2]string]int64 // src site -> dst site, completed bytes
	observers []func(FlowEvent)

	// Component-walk state for recompute, reused across events.
	epoch     uint64
	compLinks []*Link
	compFlows []*Flow

	// next is the one pending completion event, due when nextFlow
	// completes; complete is its callback, bound once by New.
	next     *sim.Event
	nextFlow *Flow
	complete func()

	// CostPerWANByte lets experiments attach a dollar cost to WAN traffic,
	// mirroring cloud egress billing. Zero disables cost accounting.
	CostPerWANByte float64
	wanCost        float64
}

// defWANLat is the one-way latency between sites that have no
// SetSiteLatency entry: 50 ms, a transatlantic RTT/2, matching the paper's
// Grid'5000–FutureGrid setting.
const defWANLat = 50 * sim.Millisecond

// New returns an empty network on the given kernel.
func New(k *sim.Kernel) *Network {
	n := &Network{
		K:        k,
		sites:    make(map[string]*Site),
		siteLat:  make(map[[2]string]sim.Time),
		wanBytes: make(map[[2]string]int64),
	}
	n.complete = n.completeNext
	return n
}

// AddSite creates a site with the given WAN uplink/downlink capacities in
// bytes/sec and a default LAN one-way latency of 100µs.
func (n *Network) AddSite(name string, wanUp, wanDown float64) *Site {
	if _, dup := n.sites[name]; dup {
		panic("simnet: duplicate site " + name)
	}
	s := &Site{
		Name:    name,
		Up:      newLink(name+"/wan-up", wanUp),
		Down:    newLink(name+"/wan-down", wanDown),
		LANLat:  100 * sim.Microsecond,
		nodes:   make(map[string]*Node),
		network: n,
	}
	n.sites[name] = s
	return s
}

// Site returns a site by name, or nil.
func (n *Network) Site(name string) *Site { return n.sites[name] }

// Sites returns all sites sorted by name.
func (n *Network) Sites() []*Site {
	out := make([]*Site, 0, len(n.sites))
	for _, s := range n.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetSiteLatency sets the one-way latency between two sites (both directions).
func (n *Network) SetSiteLatency(a, b string, lat sim.Time) {
	n.siteLat[[2]string{a, b}] = lat
	n.siteLat[[2]string{b, a}] = lat
}

// AddNode creates a node on the site with a NIC of nicBW bytes/sec.
func (s *Site) AddNode(id string, nicBW float64) *Node {
	if _, dup := s.nodes[id]; dup {
		panic("simnet: duplicate node " + id + " on site " + s.Name)
	}
	node := &Node{
		ID:   id,
		Site: s,
		Out:  newLink(id+"/out", nicBW),
		In:   newLink(id+"/in", nicBW),
	}
	s.nodes[id] = node
	return node
}

// Node returns a node by ID on the site, or nil.
func (s *Site) Node(id string) *Node { return s.nodes[id] }

// Observe registers a callback invoked on every flow start and completion.
func (n *Network) Observe(fn func(FlowEvent)) { n.observers = append(n.observers, fn) }

func (n *Network) emit(ev FlowEvent) {
	for _, o := range n.observers {
		o(ev)
	}
}

// PathLatency returns the one-way latency between two nodes.
func (n *Network) PathLatency(src, dst *Node) sim.Time {
	if src.Site == dst.Site {
		return src.Site.LANLat
	}
	if lat, ok := n.siteLat[[2]string{src.Site.Name, dst.Site.Name}]; ok {
		return lat
	}
	return defWANLat
}

// path appends the links from src to dst (at most four) to buf.
func path(buf []*Link, src, dst *Node) []*Link {
	if src == dst {
		return append(buf, src.Out) // loopback: NIC-bound local copy
	}
	if src.Site == dst.Site {
		return append(buf, src.Out, dst.In)
	}
	return append(buf, src.Out, src.Site.Up, dst.Site.Down, dst.In)
}

// BottleneckBW returns the minimum capacity along the path, ignoring
// contention. Used for sizing control-message serialisation delay.
func (n *Network) BottleneckBW(src, dst *Node) float64 {
	min := math.Inf(1)
	var buf [4]*Link
	for _, l := range path(buf[:0], src, dst) {
		if l.Capacity < min {
			min = l.Capacity
		}
	}
	return min
}

// SendMessage delivers a control message of the given size after propagation
// latency plus uncontended serialisation delay, then invokes fn. Control
// messages are deliberately not subject to fair sharing: the real systems
// send them over separate low-volume TCP connections whose impact on bulk
// transfers is negligible.
func (n *Network) SendMessage(src, dst *Node, bytes int64, fn func()) {
	delay := n.PathLatency(src, dst) + sim.FromSeconds(float64(bytes)/n.BottleneckBW(src, dst))
	if src.Site != dst.Site {
		n.accountWAN(src.Site.Name, dst.Site.Name, bytes)
	}
	n.K.Schedule(delay, fn)
}

// StartFlow begins a bulk transfer of bytes from src to dst. onDone runs when
// the last byte arrives (transfer completion plus one-way latency). Zero-byte
// flows complete after latency alone.
func (n *Network) StartFlow(src, dst *Node, bytes int64, tag string, onDone func()) *Flow {
	if bytes < 0 {
		panic("simnet: negative flow size")
	}
	f := &Flow{
		Src: src, Dst: dst, Tag: tag,
		total:     bytes,
		remaining: float64(bytes),
		last:      n.K.Now(),
		latency:   n.PathLatency(src, dst),
		done:      onDone,
		network:   n,
	}
	f.links = path(f.pathBuf[:0], src, dst)
	n.emit(FlowEvent{Start: true, Src: src, Dst: dst, Bytes: bytes, Tag: tag, At: n.K.Now()})
	if bytes == 0 {
		f.finished = true
		n.K.Schedule(f.latency, func() {
			n.emit(FlowEvent{Src: src, Dst: dst, Bytes: 0, Tag: tag, At: n.K.Now()})
			if onDone != nil {
				onDone()
			}
		})
		return f
	}
	n.flowSeq++
	f.seq = n.flowSeq
	n.advanceAll()
	i, _ := slices.BinarySearchFunc(n.active, f, flowOrder)
	n.active = slices.Insert(n.active, i, f)
	for _, l := range f.links {
		l.flows = append(l.flows, f)
	}
	n.recompute(f.links)
	n.reschedule()
	return f
}

// flowOrder is the order completions are scheduled in: by (Src.ID,
// Dst.ID, Tag), ties in start order. Node IDs are unique only per site, so
// ties happen; breaking them by start order keeps same-instant completions
// deterministic.
func flowOrder(a, b *Flow) int {
	if c := cmp.Compare(a.Src.ID, b.Src.ID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst.ID, b.Dst.ID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Tag, b.Tag); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// Cancel aborts an in-flight flow; bytes already carried stay accounted.
// onDone is not invoked. Cancelling a finished flow is a no-op.
func (f *Flow) Cancel() {
	if f.finished {
		return
	}
	n := f.network
	n.advanceAll()
	f.finish(false)
	n.recompute(f.links)
	n.reschedule()
}

// finish removes the flow from the network and accounts its carried bytes.
// advanceAll must have been called by the caller.
func (f *Flow) finish(completed bool) {
	n := f.network
	f.finished = true
	i, _ := slices.BinarySearchFunc(n.active, f, flowOrder)
	n.active = slices.Delete(n.active, i, i+1)
	carried := f.total - f.Remaining()
	if completed {
		carried = f.total
	}
	for _, l := range f.links {
		j := slices.Index(l.flows, f)
		l.flows = slices.Delete(l.flows, j, j+1)
		l.Bytes += carried
	}
	if f.Src.Site != f.Dst.Site {
		n.accountWAN(f.Src.Site.Name, f.Dst.Site.Name, carried)
	}
	n.emit(FlowEvent{Src: f.Src, Dst: f.Dst, Bytes: carried, Tag: f.Tag, At: n.K.Now()})
	if completed && f.done != nil {
		done := f.done
		n.K.Schedule(f.latency, done)
	}
}

func (n *Network) accountWAN(src, dst string, bytes int64) {
	n.wanBytes[[2]string{src, dst}] += bytes
	n.wanCost += float64(bytes) * n.CostPerWANByte
}

// WANBytes returns completed bytes sent from site a to site b.
func (n *Network) WANBytes(a, b string) int64 { return n.wanBytes[[2]string{a, b}] }

// TotalWANBytes returns completed bytes over all site pairs.
func (n *Network) TotalWANBytes() int64 {
	var sum int64
	for _, v := range n.wanBytes {
		sum += v
	}
	return sum
}

// WANCost returns the accumulated WAN billing cost.
func (n *Network) WANCost() float64 { return n.wanCost }

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.active) }

// advanceAll progresses every active flow's remaining bytes to the current
// virtual time at its last computed rate.
func (n *Network) advanceAll() {
	now := n.K.Now()
	for _, f := range n.active {
		dt := (now - f.last).Seconds()
		if dt > 0 {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.last = now
	}
}

// recompute runs max-min fair sharing over the connected component of the
// given links: every active flow reachable from them through shared links.
// Max-min rates decompose over components, and the (share, Name) order in
// which water filling freezes bottlenecks, restricted to one component, is
// the order a whole-network pass would pick, so each rate equals what
// water filling over every active flow would give it. Flows outside the
// component keep their rates. Call it with the links of the flow that just
// started or finished.
func (n *Network) recompute(seeds []*Link) {
	n.epoch++
	ep := n.epoch
	links, flows := n.compLinks[:0], n.compFlows[:0]
	for _, l := range seeds {
		if l.epoch != ep {
			l.epoch = ep
			links = append(links, l)
		}
	}
	// Breadth-first walk: links is the queue, and every flow on a queued
	// link pulls in the rest of its path.
	for i := 0; i < len(links); i++ {
		for _, f := range links[i].flows {
			if f.epoch == ep {
				continue
			}
			f.epoch = ep
			flows = append(flows, f)
			for _, l := range f.links {
				if l.epoch != ep {
					l.epoch = ep
					links = append(links, l)
				}
			}
		}
	}
	// Max-min water filling. Iteratively find the most contended link,
	// freeze its flows at the fair share, and remove their demand. Each
	// link's unfrozen count comes from the component's flows, not from
	// len(l.flows): if the walk ever missed a flow, rates come out wrong
	// (which tests catch) instead of the loop never finishing.
	for _, l := range links {
		l.rem, l.unfrozen = l.Capacity, 0
	}
	for _, f := range flows {
		f.rate = -1 // unfrozen marker
		for _, l := range f.links {
			l.unfrozen++
		}
	}
	frozen := 0
	for frozen < len(flows) {
		// Find bottleneck link: minimal fair share among links with
		// unfrozen flows.
		var bottleneck *Link
		share := math.Inf(1)
		for _, l := range links {
			if l.unfrozen == 0 {
				continue
			}
			s := l.rem / float64(l.unfrozen)
			if s < share || (s == share && (bottleneck == nil || l.Name < bottleneck.Name)) {
				share, bottleneck = s, l
			}
		}
		if bottleneck == nil {
			break
		}
		if share < 0 {
			share = 0
		}
		for _, f := range bottleneck.flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = share
			for _, l := range f.links {
				l.rem -= share
				if l.rem < 0 {
					l.rem = 0
				}
				l.unfrozen--
			}
			frozen++
		}
	}
	clear(flows) // let finished flows be collected
	n.compLinks, n.compFlows = links[:0], flows[:0]
}

// reschedule replaces the pending completion event with a fresh one for the
// earliest completion among the active flows: smallest time, and on a tie
// the first flow in active order. That is the firing order of one event per
// active flow pushed in active order. Every flow start, finish and cancel
// ends in reschedule, so only the earliest event of such a batch could ever
// fire; the next reschedule would cancel the rest. The batch's events would
// take consecutive sequence numbers that no other kernel event falls
// between, so the one event orders against every other kernel event exactly
// as the batch would. It is pushed fresh even when the earliest flow and
// its time are unchanged: the kernel orders same-instant events by push
// sequence, and the old event would fire ahead of events pushed for the
// same instant since.
func (n *Network) reschedule() {
	if n.next != nil {
		n.next.Cancel()
	}
	var first *Flow
	var at sim.Time
	for _, f := range n.active {
		if f.rate <= 0 {
			// Starved flow: no capacity. It stays active and will be
			// rescheduled when contention changes.
			continue
		}
		eta := sim.FromSeconds(f.remaining / f.rate)
		if eta < 0 {
			eta = 0
		}
		if first == nil || eta < at {
			first, at = f, eta
		}
	}
	n.next, n.nextFlow = nil, first
	if first != nil {
		n.next = n.K.Schedule(at, n.complete)
	}
}

// completeNext fires the pending completion event: the earliest flow has
// carried its last byte.
func (n *Network) completeNext() {
	f := n.nextFlow
	n.next, n.nextFlow = nil, nil
	n.advanceAll()
	f.finish(true)
	n.recompute(f.links)
	n.reschedule()
}
