package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/wire"
)

// newTestLive opens one real-time group the way every caller gets one:
// a one-shard set, a mux on a loopback socket, one group view, with the
// discovery plane's timers parked.
func newTestLive(t *testing.T) *NetRuntime {
	t.Helper()
	return newTestNet(t, NetConfig{GossipInterval: time.Hour, ProbeInterval: time.Hour}).NetRuntime
}

func TestLiveClockTimerFires(t *testing.T) {
	rt := newTestLive(t)
	var fired atomic.Bool
	rt.Do(func() {
		rt.Clock().After(time.Millisecond, func() { fired.Store(true) })
	})
	rt.Run()
	if !fired.Load() {
		t.Fatal("timer did not fire")
	}
}

func TestLiveClockCancel(t *testing.T) {
	rt := newTestLive(t)
	var fired atomic.Bool
	rt.Do(func() {
		h := rt.Clock().After(5*time.Millisecond, func() { fired.Store(true) })
		if !rt.Clock().Cancel(h) {
			t.Error("Cancel reported false for a pending timer")
		}
		if rt.Clock().Cancel(h) {
			t.Error("second Cancel reported true")
		}
		if rt.Clock().Cancel(TimerHandle{}) {
			t.Error("cancelling the zero handle reported true")
		}
	})
	rt.Run() // must quiesce without waiting the 5ms
	if fired.Load() {
		t.Fatal("cancelled timer fired")
	}
}

func TestLiveClockStaleHandle(t *testing.T) {
	rt := newTestLive(t)
	var first TimerHandle
	rt.Do(func() {
		first = rt.Clock().After(time.Microsecond, func() {})
	})
	rt.Run()
	var cancelled bool
	var secondFired atomic.Bool
	rt.Do(func() {
		// Recycle the slot, then cancel through the stale handle: the
		// new timer must survive.
		rt.Clock().After(2*time.Millisecond, func() { secondFired.Store(true) })
		cancelled = rt.Clock().Cancel(first)
	})
	if cancelled {
		t.Error("stale handle cancelled something")
	}
	rt.Run()
	if !secondFired.Load() {
		t.Fatal("recycled-slot timer lost")
	}
}

// TestLiveTicker: a ticker fires again and again until stopped, and
// never after Stop. It waits for the second fire rather than sleeping a
// fixed time, which a loaded machine can outlast with one fire.
func TestLiveTicker(t *testing.T) {
	rt := newTestLive(t)
	var fires atomic.Int64
	var tick Ticker
	rt.Do(func() {
		tick = rt.Clock().Every(500*time.Microsecond, func() { fires.Add(1) })
	})
	deadline := time.Now().Add(10 * time.Second)
	for fires.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("ticker fired %d times in 10 s, want >= 2", fires.Load())
		}
		time.Sleep(time.Millisecond)
	}
	rt.Do(func() { tick.Stop() })
	rt.Run()
	got := fires.Load()
	if got < 2 {
		t.Fatalf("ticker fired %d times, want >= 2", got)
	}
	time.Sleep(2 * time.Millisecond)
	if fires.Load() != got {
		t.Fatal("ticker fired after Stop")
	}
}

func nopTimer(any) {}

// TestLiveTimerAllocs: arming and cancelling a timer on the closure-free
// path allocates nothing once the clock is warm, as on the simulator.
func TestLiveTimerAllocs(t *testing.T) {
	rt := newTestLive(t)
	c := rt.Clock()
	var allocs float64
	rt.Do(func() {
		allocs = testing.AllocsPerRun(100, func() {
			c.Cancel(c.AfterCall(time.Second, nopTimer, nil))
		})
	})
	if allocs != 0 {
		t.Fatalf("arm+cancel allocated %v times, want 0", allocs)
	}
}

// TestLiveClockStalledShard: a timer is due its delay after it was
// armed, whenever the shard gets to run the event that armed it. After a
// 100ms stall, a callback re-arming itself every 10ms and a 10ms ticker
// each catch up with one fire, not one per interval missed back to back
// — a late shard must not burn a retransmission budget while the ack
// waits in its queue.
func TestLiveClockStalledShard(t *testing.T) {
	const every = 10 * time.Millisecond
	rt := newTestLive(t)
	c := rt.Clock()
	var stopped bool
	var again, ticks []Time // fire times, engine-owned
	var rearm func(any)
	rearm = func(any) {
		if !stopped {
			again = append(again, c.Now())
			c.AfterCall(every, rearm, nil)
		}
	}
	var tick Ticker
	var stallEnd Time
	rt.Do(func() {
		c.AfterCall(every, rearm, nil)
		tick = c.Every(every, func() { ticks = append(ticks, c.Now()) })
		time.Sleep(10 * every)
		stallEnd = c.Now()
	})
	time.Sleep(3 * every)
	rt.Do(func() {
		stopped = true
		tick.Stop()
	})
	for name, fires := range map[string][]Time{"re-arming callback": again, "ticker": ticks} {
		var first Time = -1
		n := 0
		for _, at := range fires {
			if at < stallEnd {
				continue
			}
			if first < 0 {
				first = at
			}
			if at < first.Add(3*time.Millisecond) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s fired %d times in the 3ms after the stall, want 1 (fires %v, stall ended %v)", name, n, fires, stallEnd)
		}
	}
}

// TestLiveClockOneReadPerWorkItem: Now is the time the shard dequeued
// the work item, the same however long the item runs, and the next item
// reads the clock again.
func TestLiveClockOneReadPerWorkItem(t *testing.T) {
	const nap = 2 * time.Millisecond
	rt := newTestLive(t)
	c := rt.Clock()
	var first, second, next Time
	rt.Do(func() {
		first = c.Now()
		time.Sleep(nap)
		second = c.Now()
	})
	rt.Do(func() { next = c.Now() })
	if second != first {
		t.Fatalf("Now moved within one work item: %v, then %v", first, second)
	}
	if next < first.Add(nap) {
		t.Fatalf("next work item read %v, want at least %v after %v", next, nap, first)
	}
}

// echoEndpoint replies once to every message it receives.
type echoEndpoint struct {
	rt   Runtime
	id   ids.NodeID
	got  atomic.Int64
	peer ids.NodeID
	ping bool // initiate one reply per received message
}

func (e *echoEndpoint) HandleMessage(msg Message) {
	e.got.Add(1)
	if e.ping {
		e.rt.Transport().Send(Message{From: e.id, To: msg.From, Kind: KindControl, Body: wire.Probe{}})
	}
}

func TestLiveTransportDelivery(t *testing.T) {
	rt := newTestLive(t)
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	epA := &echoEndpoint{rt: rt, id: a}
	epB := &echoEndpoint{rt: rt, id: b, ping: true}
	rt.Do(func() {
		rt.Transport().Register(a, epA)
		rt.Transport().Register(b, epB)
		for i := 0; i < 10; i++ {
			rt.Transport().Send(Message{From: a, To: b, Kind: KindToken, Body: wire.Probe{Seq: uint64(i)}})
		}
	})
	rt.Run()
	if got := epB.got.Load(); got != 10 {
		t.Fatalf("b received %d, want 10", got)
	}
	if got := epA.got.Load(); got != 10 {
		t.Fatalf("a received %d echoes, want 10", got)
	}
	var st Stats
	rt.Do(func() { st = rt.Transport().Stats() })
	if st.Sent != 20 || st.Delivered != 20 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DeliveredOf(KindToken) != 10 || st.DeliveredOf(KindControl) != 10 {
		t.Fatalf("per-kind stats = %+v", st.ByKind)
	}
}

func TestLiveTransportCrashAndRestore(t *testing.T) {
	rt := newTestLive(t)
	a := ids.MakeNodeID(ids.TierAP, 1)
	b := ids.MakeNodeID(ids.TierAP, 2)
	epB := &echoEndpoint{rt: rt, id: b}
	rt.Do(func() {
		rt.Transport().Register(a, EndpointFunc(func(Message) {}))
		rt.Transport().Register(b, epB)
		rt.Transport().Crash(b)
		rt.Transport().Send(Message{From: a, To: b, Kind: KindToken})
	})
	rt.Run()
	if epB.got.Load() != 0 {
		t.Fatal("crashed node received a message")
	}
	rt.Do(func() {
		rt.Transport().Restore(b)
		rt.Transport().Send(Message{From: a, To: b, Kind: KindToken})
	})
	rt.Run()
	if epB.got.Load() != 1 {
		t.Fatal("restored node did not receive")
	}
	var st Stats
	rt.Do(func() { st = rt.Transport().Stats() })
	if st.Dropped != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLiveRunQuiescesPromptly(t *testing.T) {
	rt := newTestLive(t)
	start := time.Now()
	rt.Run() // nothing pending: must return immediately
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("idle Run took %v", elapsed)
	}
}

func TestLiveRunUntil(t *testing.T) {
	rt := newTestLive(t)
	var done bool
	rt.Do(func() {
		rt.Clock().After(2*time.Millisecond, func() { done = true })
	})
	if !rt.RunUntil(func() bool { return done }) {
		t.Fatal("RunUntil gave up before the timer fired")
	}
	if rt.RunUntil(func() bool { return false }) {
		t.Fatal("RunUntil reported an unsatisfiable predicate")
	}
}

// TestEngineAwaitWakesOnWork: a parked await resumes with the work item
// that makes its predicate true, not on its polling tick (an hour here),
// and one that gives up leaves nothing parked on the engine.
func TestEngineAwaitWakesOnWork(t *testing.T) {
	rt := newTestLive(t)
	e := rt.eng
	var n int
	woke := make(chan bool)
	go func() {
		woke <- e.await(func() bool { return n == 2 }, time.Hour, func() bool { return false })
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-woke:
			t.Fatalf("await returned after %d of 2 work items", i)
		case <-time.After(5 * time.Millisecond):
		}
		e.do(func() { n++ })
	}
	select {
	case ok := <-woke:
		if !ok {
			t.Fatal("await reported false for a predicate that holds")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("await slept through the work item that met its predicate")
	}
	if e.await(func() bool { return false }, time.Hour, func() bool { return true }) {
		t.Fatal("await reported an unsatisfiable predicate")
	}
	e.do(func() {
		if len(e.waits) != 0 {
			t.Errorf("%d waits left parked", len(e.waits))
		}
	})
}

func TestLiveCloseIdempotent(t *testing.T) {
	rt := newTestLive(t)
	rt.Do(func() {
		rt.Transport().Register(ids.MakeNodeID(ids.TierAP, 1), EndpointFunc(func(Message) {}))
	})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDoAllocatesNothing: a do takes its call record off the
// engine's free list and puts it back once fn ran, so once the engine is
// warm a call from outside allocates nothing.
func TestEngineDoAllocatesNothing(t *testing.T) {
	e := newEngineCore(func() {}, 16)
	defer e.stop()
	ran := 0
	fn := func() { ran++ }
	e.do(fn)
	if allocs := testing.AllocsPerRun(100, func() { e.do(fn) }); allocs != 0 {
		t.Errorf("do allocates %.1f objects", allocs)
	}
	if ran != 102 {
		t.Fatalf("fn ran %d times, want 102", ran)
	}
}

// TestEngineDoRacingStop: a do whose engine stops while its fn waits in
// the queue returns, and its record, which the shutdown drain still
// runs, never goes back to the free list.
func TestEngineDoRacingStop(t *testing.T) {
	e := newEngineCore(func() {}, 16)
	e.do(func() {}) // leaves one record on the free list
	held, hold := make(chan struct{}), make(chan struct{})
	e.submit(func() { close(held); <-hold })
	<-held
	ran, returned := make(chan struct{}), make(chan struct{})
	go func() {
		e.do(func() { close(ran) })
		close(returned)
	}()
	for len(e.exec) == 0 { // the do's item is queued behind the hold
		time.Sleep(100 * time.Microsecond)
	}
	stopped := make(chan struct{})
	go func() {
		e.stop()
		close(stopped)
	}()
	wait := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never happened", what)
		}
	}
	wait(returned, "the do's return")
	close(hold)
	wait(ran, "the shutdown drain's run of fn")
	wait(stopped, "the stop")
	e.callMu.Lock()
	defer e.callMu.Unlock()
	if len(e.calls) != 0 {
		t.Fatalf("%d records on the free list after a do gave up on its own, want 0", len(e.calls))
	}
}
