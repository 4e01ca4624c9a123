// Package vm models virtual machines at the granularity live migration
// cares about: memory pages with content identities, dirty-page tracking,
// disk images with copy-on-write layers, and synthetic workloads that dirty
// pages at configurable rates.
//
// Page contents are modelled as 64-bit content IDs rather than real bytes.
// Two pages are duplicates iff their IDs are equal; hashing a page is the
// identity function on its ID. This mirrors the paper's assumption that a
// cryptographic hash is collision-free, and makes the duplication ratio an
// explicit, sweepable parameter (see ContentModel).
//
// Only live migration reads page contents, and most VMs are never migrated,
// so a Memory's pages are drawn on first use rather than when the VM is
// created. Each ContentModel draws its queued memories in creation order,
// before any later draw from the same model, so every page gets the content
// it would have had if drawn at creation (see NewMemory).
package vm

import (
	"fmt"
	"math/rand"
)

// PageSize is the simulated memory page size in bytes (x86 4 KiB).
const PageSize = 4096

// HashSize is the on-wire size of one content hash plus framing, in bytes.
// Shrinker uses SHA-1 (20 bytes); we add 12 bytes of protocol overhead
// (page index + flags), matching the research-report prototype.
const HashSize = 32

// ContentID identifies the content of a page or disk block. Equal IDs mean
// byte-identical content.
type ContentID uint64

// ZeroPage is the content ID of an all-zero page. Freshly booted VMs have
// most of their memory zeroed.
const ZeroPage ContentID = 0

// ContentModel generates page contents with controlled redundancy.
// Pages are drawn from three populations:
//
//   - zero pages (fraction ZeroFrac),
//   - a shared pool of PoolSize distinct contents common to every VM built
//     from the same base image (fraction SharedFrac) — kernel text, shared
//     libraries, buffer-cache copies of the same files,
//   - unique contents never repeated (the remainder).
//
// The literature the paper leans on (Gupta et al. OSDI'08, Milós et al.
// USENIX'09) reports 20–60 % inter-VM redundancy for same-OS VMs; SharedFrac
// expresses exactly that knob.
//
// A model is one seeded stream: Next, FreshUnique and the pages of the
// memories built on it all draw from it. The stream is seeded on its first
// draw, and a memory's pages are drawn on the memory's first use. Every draw
// first draws the pages of the memories queued before it, oldest first, so
// the stream is consumed in the order that drawing each memory at creation
// would consume it, and no content differs from that order's.
type ContentModel struct {
	ZeroFrac   float64
	SharedFrac float64
	PoolSize   int
	imageBase  uint64 // distinguishes pools of different base images
	seed       int64
	salt       uint64 // per-instance salt: unique pages never collide across VMs
	nextUnique uint64
	rng        *rand.Rand // nil until the first draw
	queued     []*Memory  // memories whose pages are not drawn yet, oldest first
}

// NewContentModel returns a generator for VMs instantiated from the named
// base image. VMs sharing an image name share the pool; different images
// have disjoint pools. The seed is used on the model's first draw.
func NewContentModel(seed int64, image string, zeroFrac, sharedFrac float64, poolSize int) *ContentModel {
	if zeroFrac < 0 || sharedFrac < 0 || zeroFrac+sharedFrac > 1 {
		panic("vm: invalid content model fractions")
	}
	if poolSize <= 0 {
		poolSize = 1
	}
	var base uint64 = 14695981039346656037 // FNV offset basis
	for _, c := range image {
		base ^= uint64(c)
		base *= 1099511628211
	}
	return &ContentModel{
		ZeroFrac:   zeroFrac,
		SharedFrac: sharedFrac,
		PoolSize:   poolSize,
		imageBase:  (base | 1) &^ (1 << 63), // nonzero, and bit 63 reserved to tag unique pages
		seed:       seed,
		nextUnique: 1,
	}
}

// flush readies the stream for a draw: it seeds the stream if this is the
// first draw and draws the pages of every queued memory.
func (m *ContentModel) flush() {
	if m.rng == nil || len(m.queued) > 0 {
		m.drawThrough(nil)
	}
}

// drawThrough seeds the stream if no draw has been made yet, then draws the
// pages of the queued memories, oldest first, up to and including last (all
// of them when last is nil), and dequeues them. The salt is the stream's
// first value.
func (m *ContentModel) drawThrough(last *Memory) {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(m.seed))
		m.salt = uint64(m.rng.Int63())
	}
	n := 0
	for _, mem := range m.queued {
		n++
		mem.pages = make([]ContentID, mem.n)
		mem.dirty = make([]bool, mem.n)
		for i := range mem.pages {
			mem.pages[i] = m.next()
		}
		mem.model = nil
		if mem == last {
			break
		}
	}
	rest := copy(m.queued, m.queued[n:])
	clear(m.queued[rest:])
	m.queued = m.queued[:rest]
}

// Next draws one page content.
func (m *ContentModel) Next() ContentID {
	m.flush()
	return m.next()
}

func (m *ContentModel) next() ContentID {
	r := m.rng.Float64()
	switch {
	case r < m.ZeroFrac:
		return ZeroPage
	case r < m.ZeroFrac+m.SharedFrac:
		// Shared pool entry: deterministic function of image and index.
		idx := uint64(m.rng.Intn(m.PoolSize))
		return ContentID(m.imageBase ^ (idx+1)<<20)
	default:
		return m.freshUnique()
	}
}

// FreshUnique returns content guaranteed not to repeat, used for pages
// rewritten with new data. The per-instance salt keeps different VMs'
// unique pages distinct (only zero and shared-pool pages are duplicates
// across VMs, as in the measurements the paper cites).
func (m *ContentModel) FreshUnique() ContentID {
	m.flush()
	return m.freshUnique()
}

func (m *ContentModel) freshUnique() ContentID {
	m.nextUnique++
	return ContentID((m.salt^m.nextUnique<<1)&^(1<<63) ^ m.imageBase | 1<<63)
}

// PoolEntry returns the i-th shared-pool content, used by workloads that
// rewrite pages back to common values (e.g. buffer cache churn).
func (m *ContentModel) PoolEntry(i int) ContentID {
	i %= m.PoolSize
	return ContentID(m.imageBase ^ (uint64(i)+1)<<20)
}

// Memory is a VM's RAM: a flat array of page contents plus a dirty bitmap
// relative to the last ClearDirty call (the migration round boundary).
type Memory struct {
	n      int
	model  *ContentModel // non-nil while the pages are queued on it
	pages  []ContentID
	dirty  []bool
	nDirty int
}

// NewMemory returns n pages whose contents come from the content model. The
// pages are drawn on the memory's first use (any method but NumPages and
// Bytes), together with those of every memory built on the model before it,
// in creation order. Any other draw from the model draws them first too, so
// each page's content is the one it would have had if drawn here.
func NewMemory(n int, m *ContentModel) *Memory {
	mem := &Memory{n: n, model: m}
	m.queued = append(m.queued, mem)
	return mem
}

// fill draws the pages if they are still queued on the model.
func (mem *Memory) fill() {
	if mem.model != nil {
		mem.model.drawThrough(mem)
	}
}

// NumPages returns the page count.
func (mem *Memory) NumPages() int { return mem.n }

// Bytes returns the memory size in bytes.
func (mem *Memory) Bytes() int64 { return int64(mem.n) * PageSize }

// Page returns the content of page i.
func (mem *Memory) Page(i int) ContentID {
	mem.fill()
	return mem.pages[i]
}

// Write sets page i to content c and marks it dirty.
func (mem *Memory) Write(i int, c ContentID) {
	mem.fill()
	mem.pages[i] = c
	if !mem.dirty[i] {
		mem.dirty[i] = true
		mem.nDirty++
	}
}

// DirtyCount returns the number of pages dirtied since the last ClearDirty.
func (mem *Memory) DirtyCount() int {
	mem.fill()
	return mem.nDirty
}

// DirtyPages returns the indices of dirty pages in ascending order.
func (mem *Memory) DirtyPages() []int {
	mem.fill()
	out := make([]int, 0, mem.nDirty)
	for i, d := range mem.dirty {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// ClearDirty resets the dirty bitmap (start of a migration round).
func (mem *Memory) ClearDirty() {
	mem.fill()
	for i := range mem.dirty {
		mem.dirty[i] = false
	}
	mem.nDirty = 0
}

// DiskImage is a block device image. Blocks carry content IDs like memory
// pages. A CoW image holds only blocks that differ from its base.
type DiskImage struct {
	Name      string
	BlockSize int64
	blocks    []ContentID
	base      *DiskImage
	overlay   map[int]ContentID // CoW overlay when base != nil
}

// NewDiskImage builds a flat (non-CoW) image of n blocks.
func NewDiskImage(name string, n int, blockSize int64, m *ContentModel) *DiskImage {
	d := &DiskImage{Name: name, BlockSize: blockSize, blocks: make([]ContentID, n)}
	for i := range d.blocks {
		d.blocks[i] = m.Next()
	}
	return d
}

// NewCoWImage builds a copy-on-write image backed by base. It starts empty:
// reads fall through to the base, writes populate the overlay.
func NewCoWImage(name string, base *DiskImage) *DiskImage {
	if base == nil {
		panic("vm: CoW image requires a base")
	}
	return &DiskImage{
		Name:      name,
		BlockSize: base.BlockSize,
		base:      base,
		overlay:   make(map[int]ContentID),
	}
}

// IsCoW reports whether the image is a copy-on-write overlay.
func (d *DiskImage) IsCoW() bool { return d.base != nil }

// Base returns the backing image (nil for flat images).
func (d *DiskImage) Base() *DiskImage { return d.base }

// NumBlocks returns the logical block count.
func (d *DiskImage) NumBlocks() int {
	if d.base != nil {
		return d.base.NumBlocks()
	}
	return len(d.blocks)
}

// Bytes returns the logical size in bytes.
func (d *DiskImage) Bytes() int64 { return int64(d.NumBlocks()) * d.BlockSize }

// OverlayBlocks returns how many blocks the CoW overlay holds (0 for flat).
func (d *DiskImage) OverlayBlocks() int { return len(d.overlay) }

// OverlayBytes returns the physical size of the CoW overlay.
func (d *DiskImage) OverlayBytes() int64 { return int64(len(d.overlay)) * d.BlockSize }

// Read returns the content of block i.
func (d *DiskImage) Read(i int) ContentID {
	if d.base != nil {
		if c, ok := d.overlay[i]; ok {
			return c
		}
		return d.base.Read(i)
	}
	return d.blocks[i]
}

// WriteBlock sets block i to content c (populating the overlay on CoW images).
func (d *DiskImage) WriteBlock(i int, c ContentID) {
	if d.base != nil {
		d.overlay[i] = c
		return
	}
	d.blocks[i] = c
}

// State is a VM lifecycle state.
type State int

// VM lifecycle states.
const (
	StatePending State = iota
	StatePropagating
	StateBooting
	StateContextualizing
	StateRunning
	StatePaused
	StateMigrating
	StateTerminated
)

var stateNames = [...]string{
	"pending", "propagating", "booting", "contextualizing",
	"running", "paused", "migrating", "terminated",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// VM is a virtual machine instance.
type VM struct {
	Name  string
	Image string
	Cores int
	Mem   *Memory
	Disk  *DiskImage
	State State
	Spot  bool    // true for spot (revocable) instances
	Bid   float64 // spot bid, $/core-hour
	// VirtualIP is assigned by the vine overlay; stable across migrations.
	VirtualIP string
	// HostID and SiteName track current placement; maintained by the cloud.
	HostID   string
	SiteName string

	workload *Workload
}

// New creates a VM with memPages of RAM whose contents come from the content
// model (drawn on first use; see NewMemory) and an optional disk.
func New(name, image string, cores, memPages int, m *ContentModel, disk *DiskImage) *VM {
	return &VM{
		Name:  name,
		Image: image,
		Cores: cores,
		Mem:   NewMemory(memPages, m),
		Disk:  disk,
		State: StatePending,
	}
}

// MemBytes returns RAM size in bytes.
func (v *VM) MemBytes() int64 { return v.Mem.Bytes() }
