package des

import (
	"container/heap"
	"slices"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/mathx"
)

// refKernel is a deliberately naive reference implementation of the
// kernel's queue discipline — container/heap over pointer events with
// lazy tombstoning, ordered by (at, seq). FuzzKernelAgainstReference
// drives it and the radix-queue kernel with identical operation
// streams and requires identical observable behaviour.
type refKernel struct {
	now   Time
	queue refHeap
	seq   uint64
	live  int // queued events not cancelled
}

type refEvent struct {
	at     Time
	seq    uint64
	id     int
	h      Handle // the kernel's handle for the same event
	cancel bool
	popped bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (r *refKernel) at(at Time, id int, h Handle) *refEvent {
	e := &refEvent{at: at, seq: r.seq, id: id, h: h}
	r.seq++
	r.live++
	heap.Push(&r.queue, e)
	return e
}

// cancel reports whether e was still queued.
func (r *refKernel) cancel(e *refEvent) bool {
	if e.popped || e.cancel {
		return false
	}
	e.cancel = true
	r.live--
	return true
}

// due appends the queued events due now to dst. They form a subtree
// at the heap's root.
func (r *refKernel) due(dst []*refEvent, i int) []*refEvent {
	if i >= len(r.queue) || r.queue[i].at != r.now {
		return dst
	}
	if !r.queue[i].cancel {
		dst = append(dst, r.queue[i])
	}
	return r.due(r.due(dst, 2*i+1), 2*i+2)
}

// peek drops cancelled events off the top and returns the earliest
// live one's time.
func (r *refKernel) peek() (Time, bool) {
	for len(r.queue) > 0 && r.queue[0].cancel {
		heap.Pop(&r.queue).(*refEvent).popped = true
	}
	if len(r.queue) == 0 {
		return 0, false
	}
	return r.queue[0].at, true
}

// step pops the earliest live event, advancing the clock. It reports
// the event id and whether one fired.
func (r *refKernel) step() (int, bool) {
	for len(r.queue) > 0 {
		e := heap.Pop(&r.queue).(*refEvent)
		e.popped = true
		if e.cancel {
			continue
		}
		r.live--
		r.now = e.at
		return e.id, true
	}
	return 0, false
}

// runUntil fires the live events due by deadline and then moves the
// clock to deadline.
func (r *refKernel) runUntil(deadline Time) (fired []int) {
	for {
		if at, ok := r.peek(); !ok || at > deadline {
			break
		}
		id, _ := r.step()
		fired = append(fired, id)
	}
	r.now = max(r.now, deadline)
	return fired
}

// The operations of FuzzKernelAgainstReference. Each is one byte,
// taken modulo numOps, followed by its operand bytes.
const (
	opAfterMicros = iota // 2 bytes: a delay in [0, 5 ms) in whole µs
	opAfterLog           // 3 bytes: a log-uniform delay (logDelay)
	opBurst              // 4 bytes: 1 to 64 events at one instant, a logDelay away
	opCancel             // 2 bytes: an issued handle, fired or not; it is then forgotten
	opCancelDue          // 1 byte: a queued event due now
	opStep
	opRunUntil // 3 bytes: to a logDelay from now
	opPeek
	numOps
)

// opReader hands out a fuzz input's bytes, zeros once it is spent.
type opReader []byte

func (r *opReader) byte() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

func (r *opReader) uint16() int { return r.byte()<<8 | r.byte() }

// logDelay is 0 ns or a delay drawn from [2^(e-1), 2^e) ns for e up to
// 43 (about 2.4 h), so events land across every bucket boundary.
func (r *opReader) logDelay() time.Duration {
	e, m := r.byte()%44, r.uint16()
	if e == 0 {
		return 0
	}
	base := time.Duration(1) << (e - 1)
	return base + time.Duration(m)*base>>16
}

// seededOps encodes the schedule/cancel/pop sequence of one seed of the
// earlier seeded differential test: 3 000 operations, delays in
// [0, 5 ms) in whole µs, cancels of any handle issued before.
func seededOps(seed uint64) []byte {
	rng := mathx.NewRNG(seed * 0x9e3779b97f4a7c15)
	var ops []byte
	live := 0
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			d := rng.Intn(5000)
			ops = append(ops, opAfterMicros, byte(d>>8), byte(d))
			live++
		case op < 7 && live > 0:
			i := rng.Intn(live)
			ops = append(ops, opCancel, byte(i>>8), byte(i))
			live--
		default:
			ops = append(ops, opStep)
		}
	}
	return ops
}

// FuzzKernelAgainstReference drives the kernel and the container/heap
// reference with one operation stream and checks, after every
// operation, that both fired the same events in the same order and
// agree on Now and Pending, and on the next event's time when asked. The seed corpus is
// the earlier seeded test's 25 sequences and one burst.
func FuzzKernelAgainstReference(f *testing.F) {
	for seed := uint64(1); seed <= 25; seed++ {
		f.Add(seededOps(seed))
	}
	// Ten events at one later instant; the first fires, two of the
	// rest are cancelled from the middle of bucket 0.
	f.Add([]byte{opBurst, 9, 20, 0, 0, opStep, opCancelDue, 4, opCancelDue, 1})
	f.Fuzz(runAgainstReference)
}

// runAgainstReference runs one operation stream on both sides.
func runAgainstReference(t *testing.T, data []byte) {
	// The longest seed is 7.3 KB; a cap keeps a mutated input's cost
	// (up to 64 events a burst, O(n) cancels) to milliseconds.
	data = data[:min(len(data), 8<<10)]
	k := NewKernel()
	ref := &refKernel{}
	var (
		got, want []int
		issued    []*refEvent // handles opCancel may pick, fired or not
		due       []*refEvent
	)
	schedule := func(at Time) {
		id := ref.seq
		h := k.At(at, func() { got = append(got, int(id)) })
		issued = append(issued, ref.at(at, int(id), h))
	}
	checked := 0 // got and want agree before this index
	r := opReader(data)
	for step := 0; len(r) > 0; step++ {
		switch r.byte() % numOps {
		case opAfterMicros:
			schedule(k.Now().Add(time.Duration(r.uint16()%5000) * time.Microsecond))
		case opAfterLog:
			schedule(k.Now().Add(r.logDelay()))
		case opBurst:
			n := 1 + r.byte()%64
			at := k.Now().Add(r.logDelay())
			for range n {
				schedule(at)
			}
		case opCancel:
			i := r.uint16()
			if len(issued) == 0 {
				break
			}
			i %= len(issued)
			e := issued[i]
			if c, want := k.Cancel(e.h), ref.cancel(e); c != want {
				t.Fatalf("step %d: Cancel = %v, reference says %v", step, c, want)
			}
			issued = slices.Delete(issued, i, i+1)
		case opCancelDue:
			i := r.byte()
			if due = ref.due(due[:0], 0); len(due) == 0 {
				break
			}
			e := due[i%len(due)]
			if !k.Cancel(e.h) || !ref.cancel(e) {
				t.Fatalf("step %d: Cancel of an event due now failed", step)
			}
		case opStep:
			fired := k.Step()
			id, refFired := ref.step()
			if fired != refFired {
				t.Fatalf("step %d: Step fired=%v, reference fired=%v", step, fired, refFired)
			}
			if refFired {
				want = append(want, id)
			}
		case opRunUntil:
			deadline := k.Now().Add(r.logDelay())
			k.RunUntil(deadline)
			want = append(want, ref.runUntil(deadline)...)
		case opPeek:
			at, ok := k.NextEventTime()
			refAt, refOK := ref.peek()
			if at != refAt || ok != refOK {
				t.Fatalf("step %d: NextEventTime = %v, %v; reference %v, %v", step, at, ok, refAt, refOK)
			}
		}
		if !slices.Equal(got[checked:], want[checked:]) {
			t.Fatalf("step %d: fired %v, reference fired %v", step, got[checked:], want[checked:])
		}
		checked = len(got)
		if k.Now() != ref.now {
			t.Fatalf("step %d: clock %v vs reference %v", step, k.Now(), ref.now)
		}
		if k.Pending() != ref.live {
			t.Fatalf("step %d: Pending %d vs reference %d", step, k.Pending(), ref.live)
		}
	}
	// Drain both and compare the complete firing sequences.
	k.Run()
	for {
		id, ok := ref.step()
		if !ok {
			break
		}
		want = append(want, id)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("after draining: fired %v, reference fired %v", got, want)
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events left after drain", k.Pending())
	}
}
