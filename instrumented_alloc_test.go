package rgb

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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

// TestQueryAllocBudget locks what a Membership-Query may allocate: the
// replier's snapshot of its ring list and the caller's own copy of the
// answer, plus slack — 3 × the answer's size. The answer is assembled
// in a collector the System keeps, so from its second query on a
// System pays no more than it ever will. With a fresh 1000-entry map
// per query this read about 8 ×.
func TestQueryAllocBudget(t *testing.T) {
	ctx := context.Background()
	svc := openTest(t, WithLiveRuntime(), WithHierarchy(3, 3), WithSeed(3))
	aps := svc.APs()
	const members = 1000
	joinSettled(t, svc, members)
	var ms runtime.MemStats
	// pairs runs n TMS+BMS query pairs and returns the bytes allocated.
	pairs := func(n int) uint64 {
		t.Helper()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < n; i++ {
			for _, scheme := range []QueryScheme{TMS(), BMS(3)} {
				res, err := svc.QueryWith(ctx, aps[i%len(aps)], scheme)
				if err != nil || len(res.Members) != members {
					t.Fatalf("%v query: %d members, err %v", scheme, len(res.Members), err)
				}
			}
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	pairs(1) // builds the collector
	second := pairs(1)
	pairs(18)
	perQuery := pairs(100) / 200
	hundredth := pairs(1)

	t.Logf("per query %d B; second pair %d B, hundredth pair %d B", perQuery, second, hundredth)
	if budget := uint64(3 * members * unsafe.Sizeof(MemberInfo{})); perQuery > budget {
		t.Errorf("a query over %d members allocates %d B, budget %d B", members, perQuery, budget)
	}
	// 5 % covers what the runtime's own goroutines allocate meanwhile.
	if second > hundredth+hundredth/20 {
		t.Errorf("second query pair allocated %d B, the hundredth %d B: the collector is not reused", second, hundredth)
	}
}
