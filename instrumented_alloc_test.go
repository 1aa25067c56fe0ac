package rgb

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/core"
)

// TestTokenRoundInstrumentedAllocs locks the hot-path allocation
// budget WITH the telemetry instrumentation installed. The PR-2
// kernel rework brought TokenRound/r=50 down to 67 allocs/op, and the
// instrumentation contract promises the observer is free on the
// steady-state path (pointer-gated callbacks, pre-sized dedup and
// pending maps, reused ring buffer) — so installing real callbacks
// must not move the budget at all.
func TestTokenRoundInstrumentedAllocs(t *testing.T) {
	sys := core.NewSystem(fastConfig(1, 50))
	var rounds, views atomic.Uint64
	sys.SetInstrumentation(&core.Instrumentation{
		RoundDone:  func(level int, d time.Duration, ops int) { rounds.Add(1) },
		ViewChange: func(kind core.EventKind, d time.Duration, measured bool) { views.Add(1) },
		Repair:     func(d time.Duration) {},
	})
	ap := sys.APs()[0]
	// Warm up: lazily-grown member maps, scratch buffers and the
	// instrumentation's pending window settle before measuring.
	next := 1
	for ; next <= 64; next++ {
		sys.JoinMemberAt(GUID(next), ap)
		sys.Run()
	}
	allocs := testing.AllocsPerRun(300, func() {
		sys.JoinMemberAt(GUID(next), ap)
		next++
		sys.Run()
	})
	if allocs > 67 {
		t.Errorf("instrumented TokenRound/r=50 = %.1f allocs/op, budget 67", allocs)
	}
	if rounds.Load() == 0 || views.Load() == 0 {
		t.Fatalf("instrumentation callbacks did not fire (rounds=%d views=%d)", rounds.Load(), views.Load())
	}
}
