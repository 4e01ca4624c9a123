// Package dedup implements the content-based addressing substrate Shrinker
// relies on: a registry of content hashes present at a destination site,
// with hit/miss accounting.
//
// In the real system the registry is a distributed service backed by the
// destination hypervisors' memory and disk contents; hashes are SHA-1 and
// assumed collision-free. Here content identity is the vm.ContentID, so
// "hashing" is exact by construction — the same assumption, made explicit.
package dedup

import (
	"repro/internal/vm"
)

// Registry tracks which page/block contents are already present within a
// scope (one node, or a whole site for Shrinker's distributed registry).
type Registry struct {
	Scope string

	known map[vm.ContentID]struct{}

	// Counters for experiment reporting.
	Hits          int64
	Misses        int64
	Registrations int64
}

// NewRegistry returns an empty registry with a scope label ("site:X" or
// "node:Y") used in reports.
func NewRegistry(scope string) *Registry {
	return &Registry{Scope: scope, known: make(map[vm.ContentID]struct{})}
}

// Len returns the number of distinct contents registered.
func (r *Registry) Len() int { return len(r.known) }

// Admit reports whether content c was already present, counting a hit, and
// otherwise records it, counting a miss and a registration. It probes the
// set once: the set's size before and after the insert tells the two apart.
func (r *Registry) Admit(c vm.ContentID) bool {
	n := len(r.known)
	r.known[c] = struct{}{}
	if len(r.known) == n {
		r.Hits++
		return true
	}
	r.Misses++
	r.Registrations++
	return false
}

// Contains reports presence without touching the counters (for seeding and
// invariant checks).
func (r *Registry) Contains(c vm.ContentID) bool {
	_, ok := r.known[c]
	return ok
}

// Register records content c as present.
func (r *Registry) Register(c vm.ContentID) {
	if _, ok := r.known[c]; !ok {
		r.known[c] = struct{}{}
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
