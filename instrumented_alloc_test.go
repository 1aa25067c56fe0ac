package rgb

import (
	"context"
	"runtime"
	"testing"
	"unsafe"
)

// TestTokenRoundInstrumentedAllocs locks the hot-path allocation
// budget with the observer the rgb layer installs: a Watch subscriber
// drained after every join and the telemetry registry built. A
// one-ring round allocates its token, the batch it carries and the
// boxes of the change's own messages; its itinerary and its pass
// acknowledgement are reused from round to round. The observer is free
// on the steady-state path: it is nil-gated, the member's version
// decides that a commit is new, its submit time rides on its Member
// record, an event reaches the subscriber's channel by value and the
// histograms are atomic, so observing must not move the budget.
func TestTokenRoundInstrumentedAllocs(t *testing.T) {
	svc := openTest(t, WithConfig(fastConfig(1, 50)))
	events, err := svc.Watch(context.Background())
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	tel := svc.Telemetry()
	var sys *System
	svc.Inspect(func(s *System) { sys = s }) // the simulator runs inline
	ap := sys.APs()[0]
	next, heard := 1, 0
	join := func() {
		sys.JoinMemberAt(GUID(next), ap)
		next++
		sys.Run()
		for len(events) > 0 {
			if ev := <-events; ev.Kind == EventJoin {
				heard++
			}
		}
	}
	// Warm up: lazily-grown member maps and scratch buffers settle
	// before measuring.
	for next <= 64 {
		join()
	}
	allocs := testing.AllocsPerRun(300, join)
	t.Logf("instrumented TokenRound/r=50 = %.2f allocs/op", allocs)
	if allocs > 11 {
		t.Errorf("instrumented TokenRound/r=50 = %.1f allocs/op, budget 11", allocs)
	}
	joins, counted, rounds := next-1, -1.0, -1.0
	for _, s := range tel.Gather() {
		switch {
		case s.Name == "rgb_view_changes_total" && s.Label("kind") == "join":
			counted = s.Value
		case s.Name == "rgb_round_duration_seconds_count":
			rounds = s.Value
		}
	}
	if heard != joins || counted != float64(joins) {
		t.Errorf("%d joins: Watch heard %d, rgb_view_changes_total counts %v", joins, heard, counted)
	}
	// Every join runs at least one round, and a round that reached
	// nobody would read as a cheaper one.
	if rounds < float64(joins) {
		t.Errorf("%d joins: rgb_round_duration_seconds_count = %v, want at least %d", joins, rounds, joins)
	}
}

// queryAllocBudget is what one Membership-Query over members members may
// allocate once warm: the caller's own copy of the answer, plus a
// quarter of it for everything else. A reply that leaves its process is
// encoded from the replier's own list, one that stays shares a copy of
// it between changes, and a reply off the socket is decoded into a
// buffer the socket keeps. With a fresh snapshot per reply this read
// about 2 ×, and with a fresh 1000-entry map per query about 8 ×. With
// a shared copy for every reply, beside a handoff per query pair,
// TestQueryAllocBudgetUnderHandoffs read 79 KB for 1 000 members.
func queryAllocBudget(members int) uint64 {
	return uint64(members) * uint64(unsafe.Sizeof(MemberInfo{})) * 5 / 4
}

// queryPairAllocs returns a function that runs n TMS+BMS query pairs,
// TMS on tms and BMS on bms, entry access proxies rotating, checks that
// every answer holds all members, and returns the bytes allocated.
func queryPairAllocs(t *testing.T, tms, bms *Service, members int) func(n int) uint64 {
	ctx := context.Background()
	aps := tms.APs()
	var ms runtime.MemStats
	return func(n int) uint64 {
		t.Helper()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < n; i++ {
			for _, q := range []struct {
				svc    *Service
				scheme QueryScheme
			}{{tms, TMS()}, {bms, BMS(3)}} {
				res, err := q.svc.QueryWith(ctx, aps[i%len(aps)], q.scheme)
				if err != nil || len(res.Members) != members {
					t.Fatalf("%v query: %d members, err %v", q.scheme, len(res.Members), err)
				}
			}
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
}

// TestQueryAllocBudget locks what a Membership-Query may allocate in one
// process (queryAllocBudget). The answer is assembled in a collector the
// System keeps, so from its second query on a System pays no more than
// it ever will.
func TestQueryAllocBudget(t *testing.T) {
	svc := openTest(t, WithLiveRuntime(), WithHierarchy(3, 3), WithSeed(3))
	const members = 1000
	joinSettled(t, svc, members)
	pairs := queryPairAllocs(t, svc, svc, members)
	pairs(1) // builds the collector and the shared lists
	second := pairs(1)
	pairs(18)
	perQuery := pairs(100) / 200
	hundredth := pairs(1)

	t.Logf("per query %d B; second pair %d B, hundredth pair %d B", perQuery, second, hundredth)
	if budget := queryAllocBudget(members); perQuery > budget {
		t.Errorf("a query over %d members allocates %d B, budget %d B", members, perQuery, budget)
	}
	// 5 % covers what the runtime's own goroutines allocate meanwhile.
	if second > hundredth+hundredth/20 {
		t.Errorf("second query pair allocated %d B, the hundredth %d B: the collector is not reused", second, hundredth)
	}
}

// TestQueryAllocBudgetNetworked holds a three-process deployment to the
// same budget, TMS queries on process 1 and BMS queries on process 2
// as net3_query_mix runs them, so that replies cross the socket and the
// codec. All three processes share this address space, so the figure
// covers the repliers and the requesters alike.
func TestQueryAllocBudgetNetworked(t *testing.T) {
	procs := listenProcs(t, 3, WithHierarchy(3, 3), WithSeed(3))
	const members = 1000
	joinOnProcessZero(t, procs, members)
	pairs := queryPairAllocs(t, procs[1], procs[2], members)
	pairs(20) // collectors, shared lists and the sockets' spare buffers
	perQuery := pairs(100) / 200

	t.Logf("per query %d B", perQuery)
	if budget := queryAllocBudget(members); perQuery > budget {
		t.Errorf("a query over %d members allocates %d B, budget %d B", members, perQuery, budget)
	}
	for i, svc := range procs {
		if ns := netStatsOf(t, svc); ns.Oversize != 0 || ns.DecodeErrors != 0 {
			t.Errorf("proc %d: %+v", i, ns)
		}
	}
}

// TestQueryAllocBudgetUnderHandoffs holds the three-process deployment
// to the same budget while its lists change: before each query pair,
// outside the measured window, process 0 hands one member off to the
// next of its bottom rings (bottomWriter) and process 1's Watch sees it
// commit. Each handoff changes the top ring's list and two bottom
// rings', so a reply that copied its list after every change would cost
// about as much again as the answer. Every pair enters at the first
// access proxy (pairs(1) starts its rotation there), which process 0
// hosts, so both queries climb to process 0's topmost entity, and
// every member is listed on process 0: each non-empty reply leaves its
// process. (A reply to a query of its own process still takes the copy
// the replies between two changes share; rotating the entry over all
// 27 proxies reads about 51 KB per query.)
func TestQueryAllocBudgetUnderHandoffs(t *testing.T) {
	procs := listenProcs(t, 3, WithHierarchy(3, 3), WithSeed(3))
	if owner := subtreeOwners(3, 3, 3)[procs[0].APs()[0]]; owner != 0 {
		t.Fatalf("the first access proxy is on process %d, want 0", owner)
	}
	const members = 1000
	w := newBottomWriter(t, procs, members)
	pairs := queryPairAllocs(t, procs[1], procs[2], members)
	var total uint64
	for i := -20; i < 100; i++ { // 20 warm-up pairs
		w.handoff()
		if b := pairs(1); i >= 0 {
			total += b
		}
	}
	perQuery := total / 200

	t.Logf("per query %d B over %d handoffs", perQuery, w.handoffs)
	if budget := queryAllocBudget(members); perQuery > budget {
		t.Errorf("a query over %d members beside handoffs allocates %d B, budget %d B", members, perQuery, budget)
	}
}
