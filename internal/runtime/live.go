package runtime

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgbproto/rgb/internal/des"
)

// engineCore is one engine shard's single-goroutine execution
// discipline, shared by every real-time group view (NetRuntime) pinned
// to the shard; a socketed mux's discovery plane runs on one of its
// own. One engine goroutine owns all protocol state, a pending
// counter tracks outstanding units of work (armed timers, in-flight
// local deliveries, decoded frames), and close semantics drain the
// queue. It is the real-time counterpart of the simulator kernel's
// event loop.
type engineCore struct {
	start time.Time
	exec  chan func()

	// now is when the running work item was dequeued, as time since
	// start: the one clock read per work item, and the protocol time
	// (liveClock.Now) and activity time (netTransport.touch) of
	// everything the item does. Engine-only.
	now Time

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

	// batch is set while the loop runs a backlog: the items that were
	// already queued when one was dequeued. Egress then keeps their
	// frames, and flush writes them once the backlog is done, one
	// datagram per peer; an idle shard's frames are written during
	// their item. Engine-only.
	batch bool
	flush func()

	// calls are do's idle call records, under callMu.
	callMu sync.Mutex
	calls  []*call

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// newEngineCore starts an engine whose egress writes what a backlog's
// items kept when flush is called (see netBufs), with room for queue
// work items.
func newEngineCore(flush func(), queue int) *engineCore {
	e := &engineCore{
		start:  time.Now(),
		exec:   make(chan func(), queue),
		flush:  flush,
		closed: make(chan struct{}),
	}
	e.wg.Add(1)
	go e.loop()
	return e
}

// loop is the single goroutine that owns all protocol state. An item
// dequeued with others queued behind it starts a batch of exactly those
// items, whose frames flush writes at its end, so a frame waits at most
// for work that was queued before its own item started, and a shard with
// nothing queued writes through.
func (e *engineCore) loop() {
	defer e.wg.Done()
	for {
		select {
		case fn := <-e.exec:
			n := len(e.exec)
			e.batch = n > 0
			e.run(fn)
			e.wake()
			for ; n > 0; n-- {
				e.run(<-e.exec) // only this goroutine receives: never blocks
				e.wake()
			}
			if e.batch {
				e.batch = false
				e.flush()
			}
		case <-e.closed:
			// Drain whatever is already queued so pending work items
			// settle their accounting, then stop.
			e.batch = true
			for {
				select {
				case fn := <-e.exec:
					e.run(fn)
				default:
					e.flush()
					return
				}
			}
		}
	}
}

// run runs one work item, and the co-hosted hops it queues, at one
// clock read.
func (e *engineCore) run(fn func()) {
	e.now = Time(time.Since(e.start))
	fn()
	e.drainLocal()
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

// call is one do on its way to the engine, recycled through the engine's
// free list with run bound once, so a do allocates nothing (not a
// sync.Pool; see inbound). done has room for run's one signal.
type call struct {
	fn   func()
	run  func()
	done chan struct{}
}

func (c *call) exec() {
	c.fn()
	c.done <- struct{}{}
}

// do runs fn on the engine goroutine and returns once it completed.
// After close, do returns without running fn (modulo the shutdown
// drain).
func (e *engineCore) do(fn func()) {
	e.callMu.Lock()
	var c *call
	if n := len(e.calls); n > 0 {
		c = e.calls[n-1]
		e.calls = e.calls[:n-1]
	}
	e.callMu.Unlock()
	if c == nil {
		c = &call{done: make(chan struct{}, 1)}
		c.run = c.exec
	}
	c.fn = fn
	e.submit(c.run)
	select {
	case <-c.done:
	case <-e.closed:
		// The engine may still drain the queue during shutdown; give
		// fn a chance to have run, then give up. fn may run yet, so
		// the record is left to the collector.
		select {
		case <-c.done:
		case <-time.After(10 * time.Millisecond):
			return
		}
	}
	c.fn = nil
	e.callMu.Lock()
	e.calls = append(e.calls, c)
	e.callMu.Unlock()
}

// stop shuts the engine down. Idempotent.
func (e *engineCore) stop() {
	e.closeOnce.Do(func() {
		close(e.closed)
		e.wg.Wait()
	})
}

// --- Clock ------------------------------------------------------------

// liveClock implements Clock for one group view over its own des.Kernel,
// whose time is the shard's real time since eng.start, read once per
// work item (engineCore.now). One time.Timer, the alarm, is set for the
// kernel's earliest event; when it rings, the engine runs the kernel up
// to now. All state but the alarm's callback is engine-owned, and
// closing the group ends exactly its own timers.
type liveClock struct {
	eng     *engineCore
	k       *des.Kernel
	alarm   *time.Timer
	due     Time // when the alarm rings; MaxTime while it is not set
	counted int  // the kernel's events as last added to eng.pending
	closed  bool
}

func newLiveClock(eng *engineCore) *liveClock {
	c := &liveClock{eng: eng, k: des.NewKernel(), due: MaxTime}
	ring := c.ring // bound once, so a ring allocates nothing
	c.alarm = time.AfterFunc(time.Duration(MaxTime), func() { eng.submit(ring) })
	c.alarm.Stop() // set by sync, for the kernel's first event
	return c
}

// Now is the time the shard dequeued the current work item: every read
// within one item agrees, and replaying the item needs only that stamp.
func (c *liveClock) Now() Time { return c.eng.now }

// at is d from now: a timer is due d after the stamp of the work item
// that armed it, however late the shard runs that item.
func (c *liveClock) at(d time.Duration) Time { return c.Now().Add(max(d, 0)) }

func (c *liveClock) After(d time.Duration, fn func()) TimerHandle {
	h := c.k.At(c.at(d), fn)
	c.sync()
	return TimerHandle{W: h.Word()}
}

func (c *liveClock) AfterCall(d time.Duration, fn func(any), arg any) TimerHandle {
	h := c.k.AtCall(c.at(d), fn, arg)
	c.sync()
	return TimerHandle{W: h.Word()}
}

// Cancel leaves the alarm alone: at worst it rings early, and an early
// ring only re-arms it.
func (c *liveClock) Cancel(h TimerHandle) bool {
	ok := c.k.Cancel(des.HandleOfWord(h.W))
	c.sync()
	return ok
}

// sync follows the kernel after a clock operation: the shard's pending
// count by its events, the alarm up to an earlier first one.
func (c *liveClock) sync() {
	if c.closed {
		return
	}
	n := c.k.Pending()
	c.eng.pending.Add(int64(n - c.counted))
	c.counted = n
	if next, ok := c.k.NextEventTime(); ok && next < c.due {
		c.due = next
		c.alarm.Reset(c.due.Sub(c.Now()))
	}
}

// ring runs on the engine when the alarm goes off: the kernel's events
// up to now fire, then the alarm is set for the next. The ring holds the
// shard busy meanwhile, so an event's follow-on work is counted before
// the event stops being.
func (c *liveClock) ring() {
	if c.closed {
		return
	}
	c.eng.pending.Add(1)
	c.k.RunUntil(c.Now())
	c.eng.pending.Add(-1)
	c.due = MaxTime
	c.sync()
}

// close ends the clock with its group: its timers never run and stop
// holding the shard's pending count up. Engine context.
func (c *liveClock) close() {
	c.closed = true
	c.alarm.Stop()
	c.eng.pending.Add(int64(-c.counted))
}

// liveTicker re-arms itself through the clock after every firing, so a
// late shard fires it once and not once per interval it missed.
type liveTicker struct {
	clock    *liveClock
	interval time.Duration
	fn       func()
	handle   TimerHandle
	stopped  bool
}

// liveTickerFire is the shared closure-free callback of all tickers.
// The kernel never runs a cancelled event, so only a Stop from fn itself
// is left to check.
func liveTickerFire(a any) {
	t := a.(*liveTicker)
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
