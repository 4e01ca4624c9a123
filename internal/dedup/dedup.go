// Package dedup implements the content-based addressing substrate Shrinker
// relies on: a registry of content hashes present at a destination site,
// with hit/miss accounting.
//
// In the real system the registry is a distributed service backed by the
// destination hypervisors' memory and disk contents; hashes are SHA-1 and
// assumed collision-free. Here content identity is the vm.ContentID, so
// "hashing" is exact by construction — the same assumption, made explicit.
//
// A registry holds its contents in a flat open-addressing set: a
// power-of-two slice of content IDs, probed linearly from a home slot. A 0
// slot is empty, so vm.ZeroPage (which is 0) is recorded by a separate flag.
// The home slot is the top bits of the ID times 2^64/φ (Fibonacci hashing),
// not the low bits: every shared-pool ID of one image has the same low 20
// bits (vm.ContentModel.PoolEntry), so a low-bit mask would put a whole
// pool into one probe run; the multiply spreads the pool index and the
// unique pages' sequential bits over the whole table. The table doubles
// when an insert would take it past 7/8 full, not the more usual 3/4, for
// memory: the largest registry a seed-42 paper-table pass builds (212,930
// contents, in E4) fits 2^18 slots (2 MB) at 7/8 but would double to 4 MB
// at 3/4.
package dedup

import (
	"math/bits"

	"repro/internal/vm"
)

// fibonacci is 2^64 divided by the golden ratio, rounded to odd.
const fibonacci = 0x9E3779B97F4A7C15

// minSlots is the table size of a new registry.
const minSlots = 64

// Registry tracks which page/block contents are already present within a
// scope (one node, or a whole site for Shrinker's distributed registry).
type Registry struct {
	Scope string

	slots   []vm.ContentID // len is a power of two; 0 marks an empty slot
	shift   uint           // 64 - log2(len(slots)): keeps the hash's top bits
	used    int            // non-zero contents in slots
	hasZero bool           // vm.ZeroPage is registered

	// Counters for experiment reporting.
	Hits          int64
	Misses        int64
	Registrations int64
}

// NewRegistry returns an empty registry with a scope label ("site:X" or
// "node:Y") used in reports.
func NewRegistry(scope string) *Registry {
	r := &Registry{Scope: scope}
	r.resize(minSlots)
	return r
}

// Len returns the number of distinct contents registered.
func (r *Registry) Len() int {
	if r.hasZero {
		return r.used + 1
	}
	return r.used
}

// Admit reports whether content c was already present, counting a hit, and
// otherwise records it, counting a miss and a registration, from one
// probe of the set.
func (r *Registry) Admit(c vm.ContentID) bool {
	if r.insert(c) {
		r.Misses++
		r.Registrations++
		return false
	}
	r.Hits++
	return true
}

// Contains reports presence without touching the counters (for seeding and
// invariant checks).
func (r *Registry) Contains(c vm.ContentID) bool {
	if c == vm.ZeroPage {
		return r.hasZero
	}
	_, ok := r.find(c)
	return ok
}

// Register records content c as present.
func (r *Registry) Register(c vm.ContentID) {
	if r.insert(c) {
		r.Registrations++
	}
}

// SeedFromDisk registers every block of a disk image (e.g. the base image
// cached at the destination's repository).
func (r *Registry) SeedFromDisk(d *vm.DiskImage) {
	for i := 0; i < d.NumBlocks(); i++ {
		r.Register(d.Read(i))
	}
}

// find probes for non-zero c from its home slot, the top bits of its
// Fibonacci hash. It returns c's slot, or the empty slot that ends the
// probe run when c is absent, and whether c was found.
func (r *Registry) find(c vm.ContentID) (int, bool) {
	mask := len(r.slots) - 1
	for i := int(uint64(c) * fibonacci >> r.shift); ; i = (i + 1) & mask {
		switch r.slots[i] {
		case c:
			return i, true
		case 0:
			return i, false
		}
	}
}

// insert records c and reports whether it was absent.
func (r *Registry) insert(c vm.ContentID) bool {
	if c == vm.ZeroPage {
		added := !r.hasZero
		r.hasZero = true
		return added
	}
	i, ok := r.find(c)
	if ok {
		return false
	}
	if r.used >= len(r.slots)/8*7 {
		r.resize(2 * len(r.slots))
		i, _ = r.find(c)
	}
	r.slots[i] = c
	r.used++
	return true
}

// resize moves the contents into a table of n slots, a power of two.
func (r *Registry) resize(n int) {
	old := r.slots
	r.slots = make([]vm.ContentID, n)
	r.shift = uint(65 - bits.Len(uint(n)))
	for _, c := range old {
		if c != 0 {
			i, _ := r.find(c)
			r.slots[i] = c
		}
	}
}
