// Package lock provides drop-in replacements for sync.Mutex and
// sync.RWMutex that count how often callers actually had to wait. The
// fast path is one TryLock plus one atomic add — cheap enough for the
// capacity ledger's per-operation guard — and the counters can be exported
// through an obs.Registry as the `sky_lock_*` families, so lock contention
// on shared structures (the capacity ledger, the scheduler's external API
// surface) is observable instead of guessed at.
//
// The shape follows the instrumented-lock pattern from the spiderpool
// exemplar cited in ROADMAP: embed the sync primitive, count the slow
// path, keep zero-value usability.
package lock

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// counters is the shared bookkeeping of Mutex and RWMutex. The obs
// instruments are nil until Instrument is called; obs methods are nil-safe
// so uninstrumented locks pay only the local atomics.
type counters struct {
	acquisitions atomic.Int64
	contentions  atomic.Int64
	acqC         *obs.Counter
	contC        *obs.Counter
}

func (c *counters) acquired() {
	c.acquisitions.Add(1)
	c.acqC.Inc()
}

func (c *counters) contended() {
	c.contentions.Add(1)
	c.contC.Inc()
}

func (c *counters) instrument(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	c.acqC = reg.CounterVec("sky_lock_acquisitions_total",
		"Lock acquisitions by instrumented lock.", "lock").With(name)
	c.contC = reg.CounterVec("sky_lock_contentions_total",
		"Lock acquisitions that had to wait, by instrumented lock.", "lock").With(name)
}

// Mutex is a sync.Mutex that counts acquisitions and contended
// acquisitions (those whose initial TryLock failed). The zero value is
// ready to use.
type Mutex struct {
	mu sync.Mutex
	c  counters
}

// Lock locks m, counting whether it had to wait.
func (m *Mutex) Lock() {
	if !m.mu.TryLock() {
		m.c.contended()
		m.mu.Lock()
	}
	m.c.acquired()
}

// TryLock attempts the lock without blocking.
func (m *Mutex) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	m.c.acquired()
	return true
}

// Unlock unlocks m.
func (m *Mutex) Unlock() { m.mu.Unlock() }

// Acquisitions returns how many times the lock was taken.
func (m *Mutex) Acquisitions() int64 { return m.c.acquisitions.Load() }

// Contentions returns how many acquisitions had to wait.
func (m *Mutex) Contentions() int64 { return m.c.contentions.Load() }

// Instrument exports the lock's counters through reg as
// sky_lock_acquisitions_total{lock=name} and
// sky_lock_contentions_total{lock=name}.
func (m *Mutex) Instrument(reg *obs.Registry, name string) { m.c.instrument(reg, name) }

// RWMutex is a sync.RWMutex with the same acquisition/contention
// accounting as Mutex, for both the write and the read side. The zero
// value is ready to use.
type RWMutex struct {
	mu sync.RWMutex
	c  counters
}

// Lock takes the write lock, counting whether it had to wait.
func (m *RWMutex) Lock() {
	if !m.mu.TryLock() {
		m.c.contended()
		m.mu.Lock()
	}
	m.c.acquired()
}

// TryLock attempts the write lock without blocking.
func (m *RWMutex) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	m.c.acquired()
	return true
}

// Unlock releases the write lock.
func (m *RWMutex) Unlock() { m.mu.Unlock() }

// RLock takes a read lock, counting whether it had to wait.
func (m *RWMutex) RLock() {
	if !m.mu.TryRLock() {
		m.c.contended()
		m.mu.RLock()
	}
	m.c.acquired()
}

// TryRLock attempts a read lock without blocking.
func (m *RWMutex) TryRLock() bool {
	if !m.mu.TryRLock() {
		return false
	}
	m.c.acquired()
	return true
}

// RUnlock releases a read lock.
func (m *RWMutex) RUnlock() { m.mu.RUnlock() }

// RLocker returns a sync.Locker backed by RLock/RUnlock.
func (m *RWMutex) RLocker() sync.Locker { return rlocker{m} }

type rlocker struct{ m *RWMutex }

func (r rlocker) Lock()   { r.m.RLock() }
func (r rlocker) Unlock() { r.m.RUnlock() }

// Acquisitions returns how many times either side of the lock was taken.
func (m *RWMutex) Acquisitions() int64 { return m.c.acquisitions.Load() }

// Contentions returns how many acquisitions (read or write) had to wait.
func (m *RWMutex) Contentions() int64 { return m.c.contentions.Load() }

// Instrument exports the lock's counters through reg under the given lock
// label.
func (m *RWMutex) Instrument(reg *obs.Registry, name string) { m.c.instrument(reg, name) }
