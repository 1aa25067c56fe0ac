package core

import (
	"slices"
	"testing"

	"github.com/rgbproto/rgb/internal/mathx"
)

// TestFIFOMatchesSlice runs random pushes and pops against a plain
// slice and checks that the queue moves down into its own array rather
// than growing it while at least half of it is popped.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := mathx.NewRNG(57)
	var q fifo[int]
	var model []int
	peak := 0
	for i := range 20_000 {
		if len(model) > 0 && rng.Intn(100) < 49 {
			if got := q.pop(); got != model[0] {
				t.Fatalf("op %d: pop = %d, want %d", i, got, model[0])
			}
			model = model[1:]
		} else {
			q.push(i)
			model = append(model, i)
		}
		peak = max(peak, len(model))
		if q.len() != len(model) || !slices.Equal(q.items[q.head:], model) {
			t.Fatalf("op %d: queue %v, want %v", i, q.items[q.head:], model)
		}
		if len(model) > 0 && q.front() != model[0] {
			t.Fatalf("op %d: front = %d, want %d", i, q.front(), model[0])
		}
	}
	if cap(q.items) > 4*peak {
		t.Errorf("array of %d for at most %d queued", cap(q.items), peak)
	}
}
