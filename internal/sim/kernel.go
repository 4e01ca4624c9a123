// Package sim provides a deterministic discrete-event simulation kernel.
//
// All substrates in this repository (network, clouds, migration, MapReduce)
// are built on this kernel. Time is virtual: an int64 count of microseconds
// since the start of the simulation. Events are callbacks ordered by
// (time, sequence number), so two events scheduled for the same instant fire
// in scheduling order, which makes every run with the same seed bit-for-bit
// reproducible.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in microseconds.
type Time int64

// Duration constants, expressed in Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts a virtual time (or duration) to float64 seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts float64 seconds to a virtual duration.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Callee is a pre-bound event target for AtCall/ScheduleCall. Storing an
// existing pointer behind the interface is allocation-free, where wrapping
// the same call in a func() closure costs one heap object per schedule —
// the difference matters on per-job hot paths under million-event replays.
type Callee interface{ Fire() }

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	callee    Callee
	cancelled bool
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.cancelled = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancelled }

// eventHeap is a 4-ary min-heap ordered by (at, seq). Because seq is unique,
// that order is strict and total, so pop order is exactly sorted order — the
// heap's internal layout (arity, sift strategy) cannot affect which event
// fires next. That freedom is spent on speed: concrete types instead of
// container/heap's interface dispatch, a 4-ary layout for half the levels of
// a binary heap, and hole-based sifting that moves each displaced element
// once instead of swapping pairs.
type eventHeap []*Event

// before reports whether a fires strictly before b.
func eventBefore(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *eventHeap) push(e *Event) {
	hh := append(*h, nil)
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(e, hh[p]) {
			break
		}
		hh[i] = hh[p]
		i = p
	}
	hh[i] = e
	*h = hh
}

func (h *eventHeap) pop() *Event {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	last := hh[n]
	hh[n] = nil // release the arena-chunk reference
	hh = hh[:n]
	*h = hh
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m, me := c, hh[c]
		for j := c + 1; j < end; j++ {
			if eventBefore(hh[j], me) {
				m, me = j, hh[j]
			}
		}
		if !eventBefore(me, last) {
			break
		}
		hh[i] = me
		i = m
	}
	hh[i] = last
	return top
}

// Kernel is the discrete-event scheduler. It is not safe for concurrent use:
// the simulation model is single-threaded by design for determinism.
type Kernel struct {
	now     Time
	seq     uint64
	events  eventHeap
	rng     *rand.Rand
	stopped bool
	fired   uint64
	// arena is the event allocation block: At carves Events out of it in
	// chunks instead of one heap object per schedule, which was the single
	// largest allocation source under million-event replays. Events are
	// never recycled (a fired chunk slot stays dead), so a held *Event
	// stays valid to Cancel forever.
	arena []Event
}

// eventArenaSize is the chunk size At allocates Events in. A chunk is
// retained until every event carved from it is unreachable, so the size
// trades allocation count against worst-case stranded memory per chunk.
const eventArenaSize = 256

// NewKernel returns a kernel with virtual time 0 and a deterministic RNG
// seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. All model code must
// draw randomness from here (or from sources derived from it) so runs are
// reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Pending returns the number of events in the queue, counting cancelled
// events that have not been popped yet: a cancelled event leaves the queue
// only when it reaches the head.
func (k *Kernel) Pending() int { return len(k.events) }

// Fired returns the total number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Schedule runs fn after delay units of virtual time. A negative delay is
// treated as zero (fire "now", after already-queued events for this instant).
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to now.
func (k *Kernel) At(t Time, fn func()) *Event {
	e := k.newEvent(t)
	e.fn = fn
	k.events.push(e)
	return e
}

// AtCall is At for a pre-bound target: c.Fire() runs at absolute time t.
func (k *Kernel) AtCall(t Time, c Callee) *Event {
	e := k.newEvent(t)
	e.callee = c
	k.events.push(e)
	return e
}

// ScheduleCall is Schedule for a pre-bound target: c.Fire() runs after
// delay units of virtual time.
func (k *Kernel) ScheduleCall(delay Time, c Callee) *Event {
	if delay < 0 {
		delay = 0
	}
	return k.AtCall(k.now+delay, c)
}

// newEvent carves the next arena slot and stamps its time and sequence.
func (k *Kernel) newEvent(t Time) *Event {
	if t < k.now {
		t = k.now
	}
	k.seq++
	if len(k.arena) == 0 {
		k.arena = make([]Event, eventArenaSize)
	}
	e := &k.arena[0]
	k.arena = k.arena[1:]
	e.at, e.seq = t, k.seq
	return e
}

// Step fires the next event, if any, advancing virtual time to it.
// It returns false when the queue is empty.
func (k *Kernel) Step() bool {
	for len(k.events) > 0 {
		e := k.events.pop()
		if e.cancelled {
			e.fn, e.callee = nil, nil
			continue
		}
		k.now = e.at
		k.fired++
		fn, c := e.fn, e.callee
		// Drop the callback references before firing: the arena chunk
		// holding this event may outlive it, and pinning every fired
		// closure until the chunk drains would defeat the arena.
		e.fn, e.callee = nil, nil
		if c != nil {
			c.Fire()
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t
// (if the simulation had not already advanced past it).
func (k *Kernel) RunUntil(t Time) {
	k.stopped = false
	for !k.stopped {
		// Drop cancelled events at the head before peeking: Step skips
		// them and fires the next live event, whatever its time.
		for len(k.events) > 0 && k.events[0].cancelled {
			e := k.events.pop()
			e.fn, e.callee = nil, nil
		}
		if len(k.events) == 0 || k.events[0].at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// Stop makes the current Run/RunUntil return after the in-flight event.
func (k *Kernel) Stop() { k.stopped = true }

// Ticker invokes fn every period until the returned cancel function is
// called. The first invocation happens after one period.
func (k *Kernel) Ticker(period Time, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			k.Schedule(period, tick)
		}
	}
	k.Schedule(period, tick)
	return func() { stopped = true }
}

// ExpJitter returns a duration drawn from an exponential distribution with
// the given mean, useful for arrival processes.
func (k *Kernel) ExpJitter(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(k.rng.ExpFloat64() * float64(mean))
}

// UniformJitter returns a duration uniformly distributed in [0, max).
func (k *Kernel) UniformJitter(max Time) Time {
	if max <= 0 {
		return 0
	}
	return Time(k.rng.Int63n(int64(max)))
}
