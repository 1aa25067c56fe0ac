package runtime

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// engineCore is one engine shard's single-goroutine execution
// discipline, shared by every real-time group view (NetRuntime) pinned
// to the shard: one engine goroutine owns all protocol state, a pending
// counter tracks outstanding units of work (armed timers, in-flight
// local deliveries, decoded frames), and close semantics drain the
// queue. It is the real-time counterpart of the simulator kernel's
// event loop.
type engineCore struct {
	start time.Time
	exec  chan func()

	// pending counts outstanding units of protocol work. Zero means
	// locally quiescent (a view with a socket additionally waits out an
	// idle window; see NetRuntime.quiescent).
	pending atomic.Int64

	// local is the FIFO of networked messages for endpoints of this very
	// engine (netTransport.Send appends, loop drains after every work
	// item); spare is its double buffer, so the steady state appends into
	// capacity, bounded by what is in flight at once. Engine-only.
	local, spare []localHop

	// waits are the RunUntil calls parked on this engine (await).
	// Engine-only.
	waits []*engineWait

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

func newEngineCore() *engineCore {
	e := &engineCore{
		start:  time.Now(),
		exec:   make(chan func(), 4096),
		closed: make(chan struct{}),
	}
	e.wg.Add(1)
	go e.loop()
	return e
}

// loop is the single goroutine that owns all protocol state.
func (e *engineCore) loop() {
	defer e.wg.Done()
	for {
		select {
		case fn := <-e.exec:
			fn()
			e.drainLocal()
			e.wake()
		case <-e.closed:
			// Drain whatever is already queued so pending work items
			// settle their accounting, then stop.
			for {
				select {
				case fn := <-e.exec:
					fn()
					e.drainLocal()
				default:
					return
				}
			}
		}
	}
}

// drainLocal delivers the co-hosted hops the last work item queued, and
// the ones those deliveries queue, in send order until none is left.
func (e *engineCore) drainLocal() {
	for len(e.local) > 0 {
		batch := e.local
		e.local = e.spare[:0]
		for i := range batch {
			h := batch[i]
			batch[i] = localHop{} // the payload must not outlive its delivery
			h.t.deliverLocal(h.msg)
		}
		e.spare = batch[:0]
	}
}

// engineWait is one await parked on the engine.
type engineWait struct {
	pred func() bool
	met  chan struct{} // closed by wake once pred holds
}

// wake releases the parked waits whose predicate the last work item
// made true.
func (e *engineCore) wake() {
	e.waits = slices.DeleteFunc(e.waits, func(w *engineWait) bool {
		met := w.pred()
		if met {
			close(w.met)
		}
		return met
	})
}

// await blocks until pred holds and reports true, or until giveUp says
// that nothing more is coming and reports pred's last word. pred runs in
// engine context, once now and then after every work item, so the
// caller resumes when the state changes and not on a polling grid;
// giveUp runs on the calling goroutine, now and then every tick.
func (e *engineCore) await(pred func() bool, tick time.Duration, giveUp func() bool) bool {
	w := &engineWait{pred: pred, met: make(chan struct{})}
	ok := false
	e.do(func() {
		if ok = pred(); !ok {
			e.waits = append(e.waits, w)
		}
	})
	if ok {
		return true
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for !giveUp() {
		select {
		case <-w.met:
			return true
		case <-e.closed:
			return false
		case <-t.C:
		}
	}
	e.do(func() {
		ok = pred()
		e.waits = slices.DeleteFunc(e.waits, func(x *engineWait) bool { return x == w })
	})
	return ok
}

// submit enqueues fn for the engine goroutine. After close the work is
// dropped — the runtime is dead and its state unreachable.
func (e *engineCore) submit(fn func()) {
	select {
	case e.exec <- fn:
	case <-e.closed:
	}
}

// do runs fn on the engine goroutine and returns once it completed.
// After close, do returns without running fn (modulo the shutdown
// drain).
func (e *engineCore) do(fn func()) {
	done := make(chan struct{})
	e.submit(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
	case <-e.closed:
		// The engine may still drain the queue during shutdown; give
		// fn a chance to have run, then give up.
		select {
		case <-done:
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// stop shuts the engine down. Idempotent.
func (e *engineCore) stop() {
	e.closeOnce.Do(func() {
		close(e.closed)
		e.wg.Wait()
	})
}

// --- Clock ------------------------------------------------------------

// liveTimerSlot is one timer in the clock's arena. Slots are recycled
// through a free list with a generation counter, exactly like the
// simulator kernel's event slots, so a TimerHandle can never touch a
// newer occupant.
type liveTimerSlot struct {
	timer *time.Timer
	gen   uint32
	armed bool
	fn    func(any)
	arg   any
}

// liveClock implements Clock on real time.Timers. All state is owned
// by the engine goroutine; timer firings re-enter through eng.submit.
// One per group view, so closing a group cancels exactly its own timers
// (cancelAll); protocol time is the shard's (eng.start).
type liveClock struct {
	eng   *engineCore
	slots []liveTimerSlot
	free  []uint32
}

func (c *liveClock) Now() Time { return Time(time.Since(c.eng.start)) }

func (c *liveClock) After(d time.Duration, fn func()) TimerHandle {
	return c.AfterCall(d, func(any) { fn() }, nil)
}

func (c *liveClock) AfterCall(d time.Duration, fn func(any), arg any) TimerHandle {
	if fn == nil {
		panic("runtime: scheduling nil callback")
	}
	if d < 0 {
		d = 0
	}
	var i uint32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.slots = append(c.slots, liveTimerSlot{})
		i = uint32(len(c.slots) - 1)
	}
	s := &c.slots[i]
	s.armed = true
	s.fn, s.arg = fn, arg
	gen := s.gen
	c.eng.pending.Add(1)
	s.timer = time.AfterFunc(d, func() {
		c.eng.submit(func() { c.fire(i, gen) })
	})
	return liveHandle(i, gen)
}

// liveHandle packs a slot index and generation (zero stays the null
// handle).
func liveHandle(i, gen uint32) TimerHandle {
	return TimerHandle{W: uint64(i+1) | uint64(gen)<<32}
}

// fire runs on the engine goroutine when a timer elapses. A stale
// generation means the timer was cancelled after its time.Timer had
// already fired; only the pending accounting remains to settle.
func (c *liveClock) fire(i uint32, gen uint32) {
	defer c.eng.pending.Add(-1)
	s := &c.slots[i]
	if !s.armed || s.gen != gen {
		return
	}
	fn, arg := s.fn, s.arg
	c.release(i)
	fn(arg)
}

// release retires a slot and bumps its generation.
func (c *liveClock) release(i uint32) {
	s := &c.slots[i]
	s.gen++
	s.armed = false
	s.fn, s.arg, s.timer = nil, nil, nil
	c.free = append(c.free, i)
}

func (c *liveClock) Cancel(h TimerHandle) bool {
	if h.W == 0 {
		return false
	}
	i := uint32(h.W) - 1
	gen := uint32(h.W >> 32)
	if int(i) >= len(c.slots) {
		return false
	}
	s := &c.slots[i]
	if !s.armed || s.gen != gen {
		return false
	}
	stopped := s.timer.Stop()
	c.release(i)
	if stopped {
		// The fire closure will never run; settle its accounting here.
		c.eng.pending.Add(-1)
	}
	// If Stop reported false the time.Timer already fired: its queued
	// fire closure finds the stale generation, does nothing, and
	// decrements pending itself.
	return true
}

// cancelAll cancels every armed timer: the group that armed them is
// closed, and its callbacks must neither run nor hold the shard's
// pending count up. Engine context.
func (c *liveClock) cancelAll() {
	for i := range c.slots {
		if c.slots[i].armed {
			c.Cancel(liveHandle(uint32(i), c.slots[i].gen))
		}
	}
}

// liveTicker re-arms itself through the clock after every firing.
type liveTicker struct {
	clock    *liveClock
	interval time.Duration
	fn       func()
	handle   TimerHandle
	stopped  bool
}

// liveTickerFire is the shared closure-free callback of all tickers.
func liveTickerFire(a any) {
	t := a.(*liveTicker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

func (t *liveTicker) arm() {
	t.handle = t.clock.AfterCall(t.interval, liveTickerFire, t)
}

func (t *liveTicker) Stop() {
	t.stopped = true
	t.clock.Cancel(t.handle)
}

func (c *liveClock) Every(interval time.Duration, fn func()) Ticker {
	if interval <= 0 {
		panic("runtime: non-positive ticker interval")
	}
	if fn == nil {
		panic("runtime: scheduling nil callback")
	}
	t := &liveTicker{clock: c, interval: interval, fn: fn}
	t.arm()
	return t
}
