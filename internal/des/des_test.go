package des

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/rgbproto/rgb/internal/mathx"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.After(30*time.Millisecond, func() { got = append(got, 3) })
	k.After(10*time.Millisecond, func() { got = append(got, 1) })
	k.After(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if k.Now() != Time(30*time.Millisecond) {
		t.Fatalf("final time = %v", k.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	at := Time(5 * time.Millisecond)
	for i := 0; i < 10; i++ {
		i := i
		k.At(at, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO tie-break violated: %v", got)
		}
	}
}

func TestSchedulingInsidePastPanics(t *testing.T) {
	k := NewKernel()
	k.After(10*time.Millisecond, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.At(Time(5*time.Millisecond), func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernel().After(time.Millisecond, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernel().After(-time.Millisecond, func() {})
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	e := k.After(time.Millisecond, func() { ran = true })
	if !k.Live(e) {
		t.Fatal("scheduled event not live")
	}
	if !k.Cancel(e) {
		t.Fatal("Cancel of a live event returned false")
	}
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if k.Live(e) {
		t.Fatal("cancelled event still live")
	}
	// Cancelling the zero Handle, an already-cancelled event and an
	// already-fired event must all be no-ops.
	if k.Cancel(Handle{}) {
		t.Fatal("Cancel of zero Handle returned true")
	}
	if k.Cancel(e) {
		t.Fatal("double Cancel returned true")
	}
	e2 := k.After(time.Millisecond, func() {})
	k.Run()
	if k.Cancel(e2) {
		t.Fatal("Cancel of a fired event returned true")
	}
}

func TestCancelledEventsRemovedEagerly(t *testing.T) {
	// Regression for the tombstone leak: cancelled events used to stay
	// queued until popped, so long-lived retransmission timers grew the
	// heap unboundedly. Cancel must shrink Pending immediately.
	k := NewKernel()
	const n = 10000
	handles := make([]Handle, 0, n)
	for i := 0; i < n; i++ {
		handles = append(handles, k.After(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if k.Pending() != n {
		t.Fatalf("Pending = %d, want %d", k.Pending(), n)
	}
	for i, h := range handles {
		if !k.Cancel(h) {
			t.Fatalf("Cancel %d failed", i)
		}
		if got, want := k.Pending(), n-i-1; got != want {
			t.Fatalf("after %d cancels Pending = %d, want %d", i+1, got, want)
		}
	}
	// The steady-state timer pattern: arm + cancel must never grow the
	// queue.
	for i := 0; i < n; i++ {
		k.Cancel(k.After(time.Second, func() {}))
		if k.Pending() != 0 {
			t.Fatalf("arm+cancel leaked: Pending = %d", k.Pending())
		}
	}
}

func TestStaleHandleCannotTouchReusedSlot(t *testing.T) {
	k := NewKernel()
	stale := k.After(time.Millisecond, func() {})
	k.Run() // fires; the slot returns to the free list
	ran := false
	fresh := k.After(time.Millisecond, func() { ran = true })
	if k.Cancel(stale) {
		t.Fatal("stale handle cancelled the slot's new occupant")
	}
	if !k.Live(fresh) {
		t.Fatal("fresh event lost")
	}
	k.Run()
	if !ran {
		t.Fatal("fresh event did not run")
	}
}

func TestAtCallClosureFreePath(t *testing.T) {
	k := NewKernel()
	var got []int
	record := func(a any) { got = append(got, *a.(*int)) }
	one, two := 1, 2
	k.AfterCall(2*time.Millisecond, record, &two)
	k.AtCall(Time(time.Millisecond), record, &one)
	k.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	sink := 0
	cb := func(a any) { sink += *a.(*int) }
	arg := 1
	// Warm the arena so the slot and heap backing arrays exist.
	for i := 0; i < 64; i++ {
		k.AfterCall(time.Millisecond, cb, &arg)
	}
	k.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		k.AfterCall(time.Millisecond, cb, &arg)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+step allocates %.1f times per op, want 0", allocs)
	}
	// The simulator's mix: deliveries, and far timers armed and
	// cancelled, once the buckets have grown.
	for _, rto := range simMixRTOs {
		m := newSimMix(rto)
		for range 50 {
			m.op() // until every bucket has held its most
		}
		if allocs := testing.AllocsPerRun(20, m.op); allocs != 0 {
			t.Fatalf("simMix(rto=%v) allocates %.1f times per op, want 0", rto, allocs)
		}
	}
}

// simMixRTOs are the retransmission timeouts the mix runs at: the
// benchmark's 1 h, and the default 250 ms, at which the timers sit
// among the deliveries instead of beyond them.
var simMixRTOs = []time.Duration{time.Hour, 250 * time.Millisecond}

// simMix replays the kernel's per-op shape on the benchmark's
// sim_change_settle workload (one change then Settle at h=4 r=5), as
// recorded from a trace: 2 027 message deliveries, each 2, 10 or 50 ms
// plus U[0, 1 ms) after the event that sends it, and 935 retransmission
// timers armed at +rto and cancelled. About 36 deliveries and 35 timers
// are queued at any time.
type simMix struct {
	k         *Kernel
	rng       *mathx.RNG
	rto       time.Duration
	timers    [35]Handle // a ring; oldest is next to be cancelled
	oldest    int
	credit    int // a timer is re-armed each time this passes 2 027
	delivered int
}

func newSimMix(rto time.Duration) *simMix {
	m := &simMix{k: NewKernel(), rng: mathx.NewRNG(1), rto: rto}
	for i := range m.timers {
		m.timers[i] = m.k.AfterCall(rto, simMixTimeout, m)
	}
	for range 36 {
		m.send()
	}
	return m
}

var simMixLatency = [3]time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond}

func (m *simMix) send() {
	d := simMixLatency[m.rng.Intn(3)] + time.Duration(m.rng.Intn(int(time.Millisecond)))
	m.k.AfterCall(d, simMixDeliver, m)
}

// simMixDeliver sends the next message, and on 935 of every 2 027
// deliveries cancels the oldest timer and arms a new one.
func simMixDeliver(a any) {
	m := a.(*simMix)
	m.delivered++
	m.send()
	if m.credit += 935; m.credit >= 2027 {
		m.credit -= 2027
		m.k.Cancel(m.timers[m.oldest])
		m.timers[m.oldest] = m.k.AfterCall(m.rto, simMixTimeout, m)
		m.oldest = (m.oldest + 1) % len(m.timers)
	}
}

func simMixTimeout(any) {}

// op runs one change's worth of the mix: 2 027 deliveries.
func (m *simMix) op() {
	for end := m.delivered + 2027; m.delivered < end; {
		m.k.Step()
	}
}

// BenchmarkKernelSimMix times the kernel on simMix; ns/delivery covers
// a delivery's pop and schedule and its share of the timers.
func BenchmarkKernelSimMix(b *testing.B) {
	for _, rto := range simMixRTOs {
		b.Run("rto="+rto.String(), func(b *testing.B) {
			m := newSimMix(rto)
			for range 50 {
				m.op()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				m.op()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2027), "ns/delivery")
		})
	}
}

// TestSameInstantBurstIsLinear drains bursts of events at one instant,
// both the current one and a later one: 80 000 may cost at most 4× per
// event what 5 000 do. Bucket 0 is kept in seq order, so popping one
// never scans the others.
func TestSameInstantBurstIsLinear(t *testing.T) {
	nop := func(any) {}
	for _, delay := range []time.Duration{0, time.Millisecond} {
		perEvent := func(n int) float64 {
			best := time.Duration(math.MaxInt64)
			for range 5 {
				k := NewKernel()
				k.After(time.Millisecond, func() {}) // last is not at the burst
				k.Step()
				at := k.Now().Add(delay)
				for range n {
					k.AtCall(at, nop, nil)
				}
				start := time.Now()
				k.Run()
				best = min(best, time.Since(start))
			}
			return float64(best) / float64(n)
		}
		small, large := perEvent(5000), perEvent(80000)
		t.Logf("delay %v: %.1f ns per event in 5 000, %.1f in 80 000", delay, small, large)
		if large > 4*small {
			t.Errorf("delay %v: 80 000 events at one instant cost %.1f ns each, 5 000 cost %.1f ns", delay, large, small)
		}
	}
}

// TestPeekThenScheduleNowFiresFirst pins last ≤ now: looking at the
// next event, by NextEventTime or by RunUntil stopping short of it,
// must not move the queue's base past now, or an event then scheduled
// at Now would be filed behind the one looked at.
func TestPeekThenScheduleNowFiresFirst(t *testing.T) {
	for name, peek := range map[string]func(k *Kernel){
		"NextEventTime": func(k *Kernel) { k.NextEventTime() },
		"RunUntil":      func(k *Kernel) { k.RunUntil(k.Now().Add(3 * time.Millisecond)) },
	} {
		t.Run(name, func(t *testing.T) {
			k := NewKernel()
			var got []string
			prev := k.Now()
			record := func(s string) func() {
				return func() {
					if k.Now() < prev {
						t.Fatalf("%s fired at %v, after an event at %v", s, k.Now(), prev)
					}
					prev = k.Now()
					got = append(got, s)
				}
			}
			k.After(time.Millisecond, record("first"))
			k.Step()
			k.After(9*time.Millisecond, record("peeked"))
			k.After(9*time.Millisecond, record("peeked too"))
			peek(k)
			k.At(k.Now(), record("now"))
			k.Run()
			if want := []string{"first", "now", "peeked", "peeked too"}; !slices.Equal(got, want) {
				t.Fatalf("fired %v, want %v", got, want)
			}
		})
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel()
	var got []string
	k.After(time.Millisecond, func() {
		got = append(got, "a")
		k.After(time.Millisecond, func() { got = append(got, "b") })
	})
	k.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
	if k.Now() != Time(2*time.Millisecond) {
		t.Fatalf("Now = %v", k.Now())
	}
}

func TestRunUntilRespectsDeadline(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.After(time.Duration(i)*time.Second, func() { count++ })
	}
	n := k.RunUntil(Time(5 * time.Second))
	if n != 5 || count != 5 {
		t.Fatalf("executed %d events, count=%d", n, count)
	}
	if k.Now() != Time(5*time.Second) {
		t.Fatalf("clock = %v, want 5s", k.Now())
	}
	// Remaining events still run afterwards.
	k.Run()
	if count != 10 {
		t.Fatalf("count after Run = %d", count)
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	k := NewKernel()
	k.RunUntil(Time(3 * time.Second))
	if k.Now() != Time(3*time.Second) {
		t.Fatalf("clock = %v", k.Now())
	}
}

func TestRunForRelative(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Every(time.Second, func() { fired++ })
	k.RunFor(3500 * time.Millisecond)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	k.RunFor(time.Second)
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
}

func TestStopFromCallback(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.After(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// A fresh Run resumes.
	k.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestTickerStop(t *testing.T) {
	k := NewKernel()
	tick := (*Ticker)(nil)
	fired := 0
	tick = k.Every(time.Second, func() {
		fired++
		if fired == 5 {
			tick.Stop()
		}
	})
	k.Run()
	if fired != 5 {
		t.Fatalf("fired = %d", fired)
	}
	if tick.Fires() != 5 {
		t.Fatalf("Fires() = %d", tick.Fires())
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernel().Every(0, func() {})
}

func TestExecutedCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.After(time.Millisecond, func() {})
	}
	k.Run()
	if k.Executed() != 7 {
		t.Fatalf("Executed = %d", k.Executed())
	}
}

func TestNextEventTime(t *testing.T) {
	k := NewKernel()
	if _, ok := k.NextEventTime(); ok {
		t.Fatal("empty kernel should have no next event")
	}
	e := k.After(5*time.Millisecond, func() {})
	k.After(9*time.Millisecond, func() {})
	if at, ok := k.NextEventTime(); !ok || at != Time(5*time.Millisecond) {
		t.Fatalf("next = %v, %v", at, ok)
	}
	k.Cancel(e)
	if at, ok := k.NextEventTime(); !ok || at != Time(9*time.Millisecond) {
		t.Fatalf("next after cancel = %v, %v", at, ok)
	}
}

// TestDeterminismProperty drives two kernels with an identical random
// schedule and checks the execution traces match exactly.
func TestDeterminismProperty(t *testing.T) {
	run := func(seed uint64) []int {
		r := mathx.NewRNG(seed)
		k := NewKernel()
		var trace []int
		for i := 0; i < 200; i++ {
			i := i
			k.After(time.Duration(r.Intn(1000))*time.Millisecond, func() {
				trace = append(trace, i)
			})
		}
		k.Run()
		return trace
	}
	f := func(seed uint64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(time.Second)
	if t1.Sub(t0) != time.Second {
		t.Fatal("Add/Sub mismatch")
	}
	if !t0.Before(t1) || t1.Before(t0) {
		t.Fatal("Before wrong")
	}
	if t1.String() != "1s" {
		t.Fatalf("String = %q", t1.String())
	}
}

func TestHeapStressOrdering(t *testing.T) {
	k := NewKernel()
	r := mathx.NewRNG(99)
	last := Time(-1)
	violations := 0
	for i := 0; i < 5000; i++ {
		k.After(time.Duration(r.Intn(10000))*time.Microsecond, func() {
			if k.Now() < last {
				violations++
			}
			last = k.Now()
		})
	}
	k.Run()
	if violations != 0 {
		t.Fatalf("%d time-order violations", violations)
	}
}
