// Package des is a deterministic discrete-event simulation kernel: a
// virtual clock and a priority queue of timestamped events. All of the
// RGB protocol machinery (token circulation, retransmission timers,
// message delivery latency, mobility) runs on top of this kernel, which
// guarantees that a simulation with a fixed seed is bit-reproducible.
//
// Determinism rules:
//   - events fire in non-decreasing virtual-time order;
//   - ties are broken by scheduling sequence number (FIFO among equal
//     timestamps), never by map iteration or goroutine scheduling;
//   - the kernel is single-threaded by design — parallelism in the
//     simulated protocol is *modeled* (concurrent tokens in different
//     rings are interleaved events), which is how discrete-event
//     simulators for parallel systems conventionally work.
//
// Performance rules (the kernel is the innermost loop of every
// simulation, so its layout is deliberate):
//   - events live by value in a slot arena recycled through a free
//     list — scheduling does not allocate once the arena is warm;
//   - the queue is a monotone radix queue: virtual time never goes
//     back, so an event is filed by the highest bit in which its time
//     differs from the last event popped. A pop takes the front of
//     bucket 0 without sifting; only when bucket 0 is empty is the
//     lowest other bucket split into the ones below it, each event
//     moving down at most once per bit;
//   - events at one instant fire in scheduling order at O(1) each:
//     bucket 0 is kept in seq order, sorted once when it is refilled;
//   - Cancel removes the event eagerly through its slot's bucket and
//     index — cancelled events never linger as tombstones, and a far
//     retransmission timer that is cancelled is never touched again;
//   - the AtCall/AfterCall path schedules a shared func(any) callback
//     plus an argument, so steady-state timers (retransmissions,
//     message deliveries, tickers) need no per-event closure.
package des

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

// Time is virtual simulation time. The zero Time is the simulation
// epoch. Durations are time.Duration so call sites read naturally
// (5*time.Millisecond etc.); virtual time has no relation to the wall
// clock.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier.
func (t Time) Sub(earlier Time) time.Duration { return time.Duration(t - earlier) }

// Before reports whether t precedes other.
func (t Time) Before(other Time) bool { return t < other }

// String renders the time as a duration since the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Handle names a scheduled event. The zero Handle refers to no event,
// and every operation on it is a no-op — convenient for timer fields
// that are "empty" between arms. A Handle stays valid after its event
// fires or is cancelled: the slot's generation is bumped on release,
// so a stale Handle can never touch the slot's next occupant.
type Handle struct {
	id  uint32 // slot index + 1; 0 marks the zero Handle
	gen uint32 // slot generation the handle was issued for
}

// Word packs the handle into a single opaque word (zero for the zero
// Handle), so substrate-agnostic timer handles can carry it without
// referencing this package's internals.
func (h Handle) Word() uint64 { return uint64(h.id) | uint64(h.gen)<<32 }

// HandleOfWord is the inverse of Word.
func HandleOfWord(w uint64) Handle {
	return Handle{id: uint32(w), gen: uint32(w >> 32)}
}

// slot is one event stored by value in the kernel's arena.
type slot struct {
	seq  uint64
	gen  uint32
	bkt  uint8     // bucket while queued
	pos  int32     // index in bucket bkt > 0 (bucket 0 is searched by seq); -1 when not queued
	fn   func()    // closure path (nil when the call path is used)
	call func(any) // closure-free path: shared callback...
	arg  any       // ...plus its argument
}

// entry is a queued event: its time and its slot, so a bucket is
// scanned and split without touching the arena.
type entry struct {
	at Time
	i  uint32
}

// Kernel is the simulation engine. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now   Time
	slots []slot // event arena, indexed by Handle.id-1
	// The queue is a monotone radix queue of entries. last is the
	// time of the last event popped, at or before every queued event
	// and at or before now; bucket b > 0 holds the events whose time
	// first differs from last at bit b-1, so every event in bucket b
	// precedes every event in bucket b+1. Bucket 0 holds the events at
	// last, buckets[0][head:] in seq order.
	last    Time
	buckets [64][]entry
	head    int
	mask    uint64 // bit b set while bucket b is not empty
	queued  int
	next    Time // earliest queued time, when nextOK
	nextOK  bool
	free    []uint32 // stack of released slot indices
	seq     uint64
	stepped uint64 // events executed so far
	stopped bool
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending returns the number of events still queued. Cancelled events
// are removed eagerly and never counted.
func (k *Kernel) Pending() int { return k.queued }

// Executed returns the number of events run so far.
func (k *Kernel) Executed() uint64 { return k.stepped }

// At schedules fn to run at the absolute virtual time at. Scheduling
// in the past (before Now) panics: that is always a protocol bug, and
// silently clamping it would hide causality violations.
func (k *Kernel) At(at Time, fn func()) Handle {
	if fn == nil {
		panic("des: scheduling nil callback")
	}
	return k.schedule(at, fn, nil, nil)
}

// After schedules fn to run d after the current time. Negative d
// panics.
func (k *Kernel) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		panic("des: negative delay")
	}
	return k.At(k.now.Add(d), fn)
}

// AtCall schedules fn(arg) at the absolute virtual time at. This is
// the closure-free path: fn is typically a shared package-level or
// per-object function, and arg a pointer, so arming the event
// allocates nothing.
func (k *Kernel) AtCall(at Time, fn func(any), arg any) Handle {
	if fn == nil {
		panic("des: scheduling nil callback")
	}
	return k.schedule(at, nil, fn, arg)
}

// AfterCall schedules fn(arg) to run d after the current time.
// Negative d panics.
func (k *Kernel) AfterCall(d time.Duration, fn func(any), arg any) Handle {
	if d < 0 {
		panic("des: negative delay")
	}
	return k.AtCall(k.now.Add(d), fn, arg)
}

// schedule stores the event in a recycled slot and queues it. An event
// at last goes to the end of bucket 0: its seq is the largest yet.
func (k *Kernel) schedule(at Time, fn func(), call func(any), arg any) Handle {
	if at < k.now {
		panic(fmt.Sprintf("des: scheduling at %v which is before now %v", at, k.now))
	}
	var i uint32
	if n := len(k.free); n > 0 {
		i = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, slot{})
		i = uint32(len(k.slots) - 1)
	}
	s := &k.slots[i]
	s.seq = k.seq
	k.seq++
	s.fn, s.call, s.arg = fn, call, arg
	k.push(entry{at, i})
	k.queued++
	if k.queued == 1 || k.nextOK && at < k.next {
		k.next, k.nextOK = at, true
	}
	return Handle{id: i + 1, gen: s.gen}
}

// push appends e to the bucket of its time and notes where in its slot.
func (k *Kernel) push(e entry) {
	s := &k.slots[e.i]
	b := bits.Len64(uint64(e.at ^ k.last))
	s.bkt, s.pos = uint8(b), int32(len(k.buckets[b]))
	k.buckets[b] = append(k.buckets[b], e)
	k.mask |= 1 << b
}

// release returns a slot to the free list and bumps its generation so
// outstanding handles go stale.
func (k *Kernel) release(i uint32) {
	s := &k.slots[i]
	s.gen++
	s.pos = -1
	s.fn, s.call, s.arg = nil, nil, nil
	k.free = append(k.free, i)
}

// Cancel removes the event from the queue so it will not fire, and
// reports whether it did. Cancelling the zero Handle, or an event that
// already fired or was already cancelled, is a harmless no-op — the
// convenient semantics for retransmission timers.
func (k *Kernel) Cancel(h Handle) bool {
	if h.id == 0 || int(h.id-1) >= len(k.slots) {
		return false
	}
	i := h.id - 1
	s := &k.slots[i]
	if s.gen != h.gen || s.pos < 0 {
		return false
	}
	q, p, at := k.buckets[s.bkt], int(s.pos), k.last
	if s.bkt == 0 {
		// Bucket 0 keeps seq order: find the event by its seq and
		// close the gap.
		p, _ = slices.BinarySearchFunc(q[k.head:], s.seq, func(e entry, seq uint64) int { return cmp.Compare(k.slots[e.i].seq, seq) })
		p += k.head
		copy(q[p:], q[p+1:])
	} else {
		at = q[p].at
		q[p] = q[len(q)-1]
		k.slots[q[p].i].pos = int32(p)
	}
	q = q[:len(q)-1]
	k.buckets[s.bkt] = q
	if s.bkt == 0 && len(q) == k.head || len(q) == 0 {
		k.empty(s.bkt)
	}
	if at == k.next {
		k.nextOK = false
	}
	k.queued--
	k.release(i)
	return true
}

// empty marks bucket b empty, keeping its capacity.
func (k *Kernel) empty(b uint8) {
	k.buckets[b] = k.buckets[b][:0]
	k.mask &^= 1 << b
	if b == 0 {
		k.head = 0
	}
}

// refill moves the lowest non-empty bucket into the lower ones, with
// last advanced to its earliest time, when bucket 0 is empty. The
// events that land in bucket 0 are put in seq order once, here.
func (k *Kernel) refill() {
	b := uint8(bits.TrailingZeros64(k.mask))
	q := k.buckets[b]
	k.last, _ = k.NextEventTime()
	k.empty(b)
	for _, e := range q {
		k.push(e)
	}
	if z := k.buckets[0]; len(z) > 1 {
		slices.SortFunc(z, func(x, y entry) int { return cmp.Compare(k.slots[x.i].seq, k.slots[y.i].seq) })
	}
}

// Step runs the single earliest pending event. It reports false when
// the queue is empty.
func (k *Kernel) Step() bool {
	if k.queued == 0 {
		return false
	}
	if k.mask&1 == 0 {
		k.refill()
	}
	e := k.buckets[0][k.head]
	k.head++
	if k.head == len(k.buckets[0]) {
		k.empty(0)
		k.nextOK = false
	}
	k.queued--
	i, s := e.i, &k.slots[e.i]
	k.now = e.at
	fn, call, arg := s.fn, s.call, s.arg
	k.release(i)
	k.stepped++
	if fn != nil {
		fn()
	} else {
		call(arg)
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
// It returns the number of events executed by this call.
func (k *Kernel) Run() uint64 {
	k.stopped = false
	start := k.stepped
	for !k.stopped && k.Step() {
	}
	return k.stepped - start
}

// RunUntil executes events with timestamps <= deadline (stopping early
// if the queue drains or Stop is called) and then advances the clock
// to deadline. It returns the number of events executed.
func (k *Kernel) RunUntil(deadline Time) uint64 {
	k.stopped = false
	start := k.stepped
	for !k.stopped {
		if at, ok := k.NextEventTime(); !ok || at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.stepped - start
}

// RunFor is RunUntil(Now+d).
func (k *Kernel) RunFor(d time.Duration) uint64 {
	return k.RunUntil(k.now.Add(d))
}

// Stop makes the innermost Run/RunUntil return after the current event
// completes. Intended to be called from inside an event callback.
func (k *Kernel) Stop() { k.stopped = true }

// NextEventTime returns the virtual time of the next pending event,
// and false if none is pending. It leaves the queue as it is, so last
// never passes now, and it scans a bucket only when the earliest event
// changed since the last call.
func (k *Kernel) NextEventTime() (Time, bool) {
	if k.queued == 0 {
		return 0, false
	}
	if !k.nextOK {
		if k.mask&1 != 0 {
			k.next = k.last
		} else {
			q := k.buckets[bits.TrailingZeros64(k.mask)]
			k.next = q[0].at
			for _, e := range q[1:] {
				k.next = min(k.next, e.at)
			}
		}
		k.nextOK = true
	}
	return k.next, true
}

// Ticker repeatedly schedules fn every interval until cancelled.
// Returned by Every.
type Ticker struct {
	k        *Kernel
	interval time.Duration
	fn       func()
	event    Handle
	stopped  bool
}

// tickerFire is the shared closure-free callback of all tickers:
// re-arming costs no allocation beyond the ticker itself.
func tickerFire(a any) {
	t := a.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Every schedules fn to run every interval, first firing one interval
// from now. Interval must be positive.
func (k *Kernel) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("des: non-positive ticker interval")
	}
	if fn == nil {
		panic("des: scheduling nil callback")
	}
	t := &Ticker{k: k, interval: interval, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.event = t.k.AfterCall(t.interval, tickerFire, t)
}

// Stop cancels future firings. Safe to call multiple times and from
// within the ticker callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.k.Cancel(t.event)
}
