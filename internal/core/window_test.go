package core

import (
	"math/rand/v2"
	"testing"
)

// sliceWindow is the sliding slice the window type replaced: drop the
// head once full, append at the tail. It is the reference the window's
// eviction order is checked against.
type sliceWindow struct {
	q     []int
	limit int
}

func (s *sliceWindow) push(k int) (evicted int, full bool) {
	if len(s.q) >= s.limit {
		evicted, full = s.q[0], true
		s.q = s.q[1:]
	}
	s.q = append(s.q, k)
	return evicted, full
}

// TestWindowMatchesSlidingSlice: over random limits and key streams the
// window evicts exactly what the sliding slice evicted, in the same
// order, and holds the same keys oldest first.
func TestWindowMatchesSlidingSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	for trial := 0; trial < 200; trial++ {
		limit := 1 + rng.IntN(100)
		w, ref := newWindow[int](limit), &sliceWindow{limit: limit}
		for i := 0; i < 5*limit+rng.IntN(300); i++ {
			k := rng.IntN(1000)
			got, gotFull := w.push(k)
			want, wantFull := ref.push(k)
			if got != want || gotFull != wantFull {
				t.Fatalf("limit %d, push %d of %d: evicted (%d, %v), sliding slice (%d, %v)", limit, i, k, got, gotFull, want, wantFull)
			}
			if n := len(w.keys); cap(w.keys) > 2*n+8 {
				t.Fatalf("limit %d: %d keys in %d slots, want growth as append grows", limit, n, cap(w.keys))
			}
		}
		for i, k := range ref.q {
			if got := w.keys[(w.head+i)%len(w.keys)]; got != k {
				t.Fatalf("limit %d: key %d from the oldest is %d, sliding slice %d", limit, i, got, k)
			}
		}
		if len(w.keys) > limit {
			t.Fatalf("limit %d: window holds %d keys", limit, len(w.keys))
		}
	}
}

// TestWindowFullPushAllocatesNothing: the sliding slice reallocated and
// copied the whole window every few hundred pushes once full; the
// window overwrites its oldest slot.
func TestWindowFullPushAllocatesNothing(t *testing.T) {
	w := newWindow[changeKey](eventDedupWindow)
	if cap(w.keys) != 0 {
		t.Fatalf("a new window holds %d slots, want none before the first push", cap(w.keys))
	}
	seq := uint64(0)
	for ; seq < eventDedupWindow; seq++ {
		w.push(changeKey{seq: seq})
	}
	if allocs := testing.AllocsPerRun(10000, func() {
		seq++
		w.push(changeKey{seq: seq})
	}); allocs != 0 {
		t.Fatalf("a push into a full window allocates %.2f times", allocs)
	}
}
