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
// one-ring round's token, pass and holder acknowledgements come off the
// System's free lists and its itinerary is reused from round to round,
// so a join allocates only the batch the round carries, the member's
// record, its boxed submission and the growth of the ring's lists (4;
// 8 when each body was allocated per send). The observer is free
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
	if allocs > 4 {
		t.Errorf("instrumented TokenRound/r=50 = %.1f allocs/op, budget 4", allocs)
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
// quarter of it for everything else. A reply is encoded, or copied into
// a buffer the engine keeps, from the replier's own list, and a reply
// off the socket is decoded into a buffer the socket keeps. With a fresh
// snapshot per reply this read about 2 ×, and with a fresh 1000-entry
// map per query about 8 ×. With a shared copy for every reply, beside a
// handoff per query pair, TestQueryAllocBudgetUnderHandoffs read 79 KB
// for 1 000 members.
func queryAllocBudget(members int) uint64 {
	return answerBytes(members) * 5 / 4
}

// answerBytes is the size of an answer of members members: the caller's
// own copy.
func answerBytes(members int) uint64 {
	return uint64(members) * uint64(unsafe.Sizeof(MemberInfo{}))
}

// queryAllocs runs one query of scheme on svc entering at ap, checks
// that its answer holds all members, and returns the bytes allocated.
func queryAllocs(t *testing.T, svc *Service, ap NodeID, scheme QueryScheme, members int) uint64 {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	res, err := svc.QueryWith(context.Background(), ap, scheme)
	runtime.ReadMemStats(&ms)
	if err != nil || len(res.Members) != members {
		t.Fatalf("%v query: %d members, err %v", scheme, len(res.Members), err)
	}
	return ms.TotalAlloc - before
}

// queryPairAllocs returns a function that runs n TMS+BMS query pairs,
// TMS on tms and BMS on bms, pair i entering at access proxy first+i
// (mod their number), checks that every answer holds all members, and
// returns the bytes allocated.
func queryPairAllocs(t *testing.T, tms, bms *Service, members int) func(first, n int) uint64 {
	aps := tms.APs()
	return func(first, n int) uint64 {
		t.Helper()
		var total uint64
		for i := first; i < first+n; i++ {
			ap := aps[i%len(aps)]
			total += queryAllocs(t, tms, ap, TMS(), members) + queryAllocs(t, bms, ap, BMS(3), members)
		}
		return total
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
	pairs(0, 1) // builds the collector and the engine's reply buffers
	second := pairs(0, 1)
	pairs(0, 18)
	perQuery := pairs(0, 100) / 200
	hundredth := pairs(0, 1)

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
	pairs(0, 20) // collectors, reply buffers and the sockets' spare buffers
	perQuery := pairs(0, 100) / 200

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

// TestQueryAllocBudgetUnderHandoffs holds a deployment to the same
// budget while its lists change: before each query pair, outside the
// measured window, process 0 hands one member off to the next of its
// bottom rings (bottomWriter) and the watching process sees it commit.
// Each handoff changes the top ring's list and two bottom rings', so a
// reply that copied its list after every change would cost about as
// much again as the answer.
//
// On three processes, the first row enters every pair at the first
// access proxy, which process 0 hosts, so both queries climb to process
// 0's topmost entity and each non-empty reply leaves its process; the
// rotating row enters pair i at the i-th of all 27 proxies, so a third
// of the TMS replies stay in process 1 (with a shared copy built after
// each change, that row read 51 KB per query). The in-process row holds
// a top ring of 5 000 members, more than a datagram carries: every
// reply is a local hop, and from its 20th query on a query must cost no
// more than its answer, plus 5 % for what the runtime's own goroutines
// allocate meanwhile.
func TestQueryAllocBudgetUnderHandoffs(t *testing.T) {
	for _, row := range []struct {
		name   string
		rotate bool
	}{{"first-proxy", false}, {"rotating", true}} {
		t.Run(row.name, func(t *testing.T) {
			procs := listenProcs(t, 3, WithHierarchy(3, 3), WithSeed(3))
			if owner := subtreeOwners(3, 3, 3)[procs[0].APs()[0]]; owner != 0 {
				t.Fatalf("the first access proxy is on process %d, want 0", owner)
			}
			const members = 1000
			w := newBottomWriter(t, procs, members)
			pairs := queryPairAllocs(t, procs[1], procs[2], members)
			var total uint64
			for i := 0; i < 120; i++ { // 20 warm-up pairs
				w.handoff()
				first := 0
				if row.rotate {
					first = i
				}
				if b := pairs(first, 1); i >= 20 {
					total += b
				}
			}
			perQuery := total / 200

			t.Logf("per query %d B over %d handoffs", perQuery, w.handoffs)
			if budget := queryAllocBudget(members); perQuery > budget {
				t.Errorf("a query over %d members beside handoffs allocates %d B, budget %d B", members, perQuery, budget)
			}
		})
	}
	t.Run("in-process-5000", func(t *testing.T) {
		procs := listenProcs(t, 1, WithHierarchy(3, 3), WithSeed(3))
		const members = 5000
		w := newBottomWriter(t, procs, members)
		aps := procs[0].APs()
		var got [2]uint64
		for i := 0; i < 20; i++ {
			for k, scheme := range []QueryScheme{TMS(), BMS(3)} {
				w.handoff()
				got[k] = queryAllocs(t, procs[0], aps[i%len(aps)], scheme, members)
			}
		}
		t.Logf("20th TMS query %d B, 20th BMS query %d B; the answer is %d B", got[0], got[1], answerBytes(members))
		if budget := answerBytes(members) * 21 / 20; got[0] > budget || got[1] > budget {
			t.Errorf("the 20th TMS and BMS queries over %d members allocate %d B and %d B, budget %d B", members, got[0], got[1], budget)
		}
	})
}
