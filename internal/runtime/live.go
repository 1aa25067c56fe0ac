package runtime

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
)

var _ Runtime = (*LiveRuntime)(nil)

// LiveConfig parameterizes a LiveMux: every group of a live in-process
// deployment. Each group's jitter/loss stream is seeded by its Open.
type LiveConfig struct {
	// Latency is the message delay model; nil selects a constant
	// 200µs, which keeps in-process deployments snappy while still
	// exercising genuinely asynchronous delivery. The one model
	// instance is shared by every group across all engine shards, so a
	// caller-supplied model must be safe for concurrent Latency calls
	// (the built-in models are: they keep no mutable state — the RNG is
	// passed in per call).
	Latency LatencyModel

	// Loss is the independent per-message loss probability.
	Loss float64

	// MailboxDepth bounds each node's mailbox; messages beyond it are
	// dropped (and counted), like any real bounded ingress queue.
	// Zero selects 1024.
	MailboxDepth int

	// SettleTimeout bounds Run/RunUntil: the pending counter is
	// shard-wide, so a busy sibling group could otherwise block a
	// settled group's Run indefinitely. Zero selects 5s.
	SettleTimeout time.Duration
}

// engineCore is one engine shard's single-goroutine execution
// discipline, shared by the real-time runtimes (the in-process
// LiveRuntime and the UDP NetRuntime views pinned to the shard): one
// engine goroutine owns all protocol state, a pending
// counter tracks outstanding units of work (armed timers, in-flight
// local deliveries), and close semantics drain the queue. It is the
// live-side counterpart of the simulator kernel's event loop.
type engineCore struct {
	start time.Time
	exec  chan func()

	// pending counts outstanding units of protocol work. Zero means
	// locally quiescent (a networked runtime additionally considers
	// socket idle time; see NetRuntime.Run).
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

// LiveRuntime is one group's view of a LiveMux: the protocol engine
// in-process on real time. Per-node mailbox goroutines deliver messages
// after their model latency, timers are real time.Timers, and the
// group's engine shard serializes every protocol callback — the same
// single-writer discipline the simulator gets for free, enforced here
// with channels instead of a virtual clock.
//
// The shard's engine goroutine owns all protocol state. External
// callers reach it through Do; mailbox pumps and timer firings enqueue
// onto the same serialization channel, so handlers never race.
type LiveRuntime struct {
	eng   *engineCore
	clock *liveClock
	tr    *liveTransport

	mux *LiveMux
	gid ids.GroupID

	// settleBound caps Run/RunUntil: the shard-wide pending counter
	// includes sibling groups' work, so waiting for it to hit zero must
	// not be unbounded.
	settleBound time.Duration
}

// liveDefaults fills the zero-value LiveConfig knobs.
func liveDefaults(cfg *LiveConfig) {
	if cfg.Latency == nil {
		cfg.Latency = ConstantLatency(200 * time.Microsecond)
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 1024
	}
	if cfg.SettleTimeout <= 0 {
		cfg.SettleTimeout = 5 * time.Second
	}
}

// newLiveTransport builds one group's mailbox transport on an engine
// shard; seed seeds the group's jitter/loss stream.
func newLiveTransport(eng *engineCore, clock *liveClock, cfg LiveConfig, seed uint64) *liveTransport {
	return &liveTransport{
		eng:       eng,
		clock:     clock,
		latency:   cfg.Latency,
		loss:      cfg.Loss,
		rng:       mathx.NewRNG(seed),
		depth:     cfg.MailboxDepth,
		endpoints: make(map[ids.NodeID]*mailbox),
		crashed:   make(map[ids.NodeID]bool),
	}
}

// Clock implements Runtime.
func (rt *LiveRuntime) Clock() Clock { return rt.clock }

// Transport implements Runtime.
func (rt *LiveRuntime) Transport() Transport { return rt.tr }

// Do implements Runtime: fn runs on the engine goroutine; Do returns
// once it completed. After the shard set closed, Do returns without
// running fn.
func (rt *LiveRuntime) Do(fn func()) { rt.eng.do(fn) }

// Run implements Runtime: it blocks until no timers are armed and no
// messages are in flight on the group's shard, or the settle timeout.
// New work is registered before the work that created it retires, so
// reading zero means true quiescence.
func (rt *LiveRuntime) Run() {
	deadline := time.Now().Add(rt.settleBound)
	for rt.eng.pending.Load() != 0 && time.Now().Before(deadline) {
		select {
		case <-rt.eng.closed:
			return
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// RunFor implements Runtime: live protocol time is wall time.
func (rt *LiveRuntime) RunFor(d time.Duration) {
	select {
	case <-rt.eng.closed:
	case <-time.After(d):
	}
}

// RunUntil implements Runtime: it waits until pred, evaluated in engine
// context, reports true or the shard quiesces without it (bounded by
// the settle timeout), matching the simulator's drained-queue
// behaviour.
func (rt *LiveRuntime) RunUntil(pred func() bool) bool {
	deadline := time.Now().Add(rt.settleBound)
	return rt.eng.await(pred, 200*time.Microsecond, func() bool {
		return rt.eng.pending.Load() == 0 || !time.Now().Before(deadline)
	})
}

// Close implements Runtime: it stops this group's mailbox pumps and
// releases the group identity for reopening. In-flight work is dropped.
// The engine shard belongs to the ShardSet and keeps running.
func (rt *LiveRuntime) Close() error {
	rt.eng.do(rt.tr.closeMailboxes)
	rt.mux.release(rt.gid)
	return nil
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
// One per engine shard, serving every group view pinned to it.
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

// --- Transport --------------------------------------------------------

// inflightMsg is one message riding a mailbox with its delivery
// deadline in protocol time.
type inflightMsg struct {
	msg Message
	at  Time
}

// mailbox is one node's bounded ingress queue with its pump goroutine.
type mailbox struct {
	ch chan inflightMsg
	ep Endpoint
}

// liveTransport implements Transport over per-node mailboxes. All
// state is owned by the engine goroutine; only the pump goroutines
// run outside it, and they touch nothing but their own channel.
type liveTransport struct {
	eng       *engineCore
	clock     *liveClock
	latency   LatencyModel
	loss      float64
	rng       *mathx.RNG
	depth     int
	endpoints map[ids.NodeID]*mailbox
	crashed   map[ids.NodeID]bool
	stats     Stats
}

func (t *liveTransport) Register(id ids.NodeID, ep Endpoint) {
	if id.IsZero() {
		panic("runtime: registering the zero NodeID")
	}
	if ep == nil {
		panic("runtime: registering nil endpoint")
	}
	if old, ok := t.endpoints[id]; ok {
		old.ep = ep // keep the existing mailbox and pump
		return
	}
	mb := &mailbox{ch: make(chan inflightMsg, t.depth), ep: ep}
	t.endpoints[id] = mb
	go t.pump(mb)
}

// pump delivers one mailbox's messages after their latency deadline,
// re-entering the engine for the handler call. The sleep is relative
// to the message's own deadline, so a burst drains back to back.
func (t *liveTransport) pump(mb *mailbox) {
	for fl := range mb.ch {
		if wait := time.Duration(fl.at - t.clock.Now()); wait > 0 {
			time.Sleep(wait)
		}
		msg := fl.msg
		t.eng.submit(func() { t.deliver(mb, msg) })
	}
}

// deliver runs on the engine goroutine: destination-side checks, then
// the handler.
func (t *liveTransport) deliver(mb *mailbox, msg Message) {
	defer t.eng.pending.Add(-1)
	if cur, ok := t.endpoints[msg.To]; !ok || cur != mb {
		// Unregistered (or replaced) while the message was in flight.
		t.stats.Dropped++
		return
	}
	if t.crashed[msg.To] {
		t.stats.Dropped++
		return
	}
	t.stats.Delivered++
	t.stats.ByKind[msg.Kind]++
	mb.ep.HandleMessage(msg)
}

func (t *liveTransport) Unregister(id ids.NodeID) {
	if mb, ok := t.endpoints[id]; ok {
		delete(t.endpoints, id)
		close(mb.ch)
	}
}

func (t *liveTransport) Send(msg Message) {
	msg.Sent = t.clock.Now()
	t.stats.Sent++
	if t.crashed[msg.From] {
		t.stats.Dropped++
		return
	}
	if msg.To.IsZero() {
		t.stats.Dropped++
		return
	}
	if t.loss > 0 && t.rng.Bernoulli(t.loss) {
		t.stats.Dropped++
		return
	}
	mb, ok := t.endpoints[msg.To]
	if !ok {
		t.stats.Dropped++
		return
	}
	delay := t.latency.Latency(msg.From, msg.To, t.rng)
	t.eng.pending.Add(1)
	select {
	case mb.ch <- inflightMsg{msg: msg, at: msg.Sent.Add(delay)}:
	default:
		// Mailbox full: the bounded ingress queue drops, like any
		// real receiver under overload.
		t.stats.Dropped++
		t.eng.pending.Add(-1)
	}
}

// closeMailboxes stops every pump goroutine. Runs in engine context.
func (t *liveTransport) closeMailboxes() {
	for _, mb := range t.endpoints {
		close(mb.ch)
	}
	t.endpoints = make(map[ids.NodeID]*mailbox)
}

func (t *liveTransport) Crash(id ids.NodeID)        { t.crashed[id] = true }
func (t *liveTransport) Restore(id ids.NodeID)      { delete(t.crashed, id) }
func (t *liveTransport) Crashed(id ids.NodeID) bool { return t.crashed[id] }
func (t *liveTransport) Stats() Stats               { return t.stats }
func (t *liveTransport) ResetStats()                { t.stats = Stats{} }
