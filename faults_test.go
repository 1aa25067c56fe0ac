package rgb

import (
	"context"
	"reflect"
	"testing"

	rgbruntime "github.com/rgbproto/rgb/internal/runtime"
)

// TestFaultsNetworkedLiveGroup is the adversarial-network acceptance
// check: a live three-process loopback-UDP group runs with every
// datagram fault armed at 5% on every process — corrupt,
// duplicate/replay, misroute, reorder — and must still admit every
// member with zero panics. The injected-fault counters in NetStats
// prove the gauntlet actually fired on the hops between processes.
func TestFaultsNetworkedLiveGroup(t *testing.T) {
	ctx := context.Background()
	procs := listenProcs(t, 3, WithHierarchy(2, 4), WithSeed(7),
		WithFaults(FaultPlan{Seed: 7, Corrupt: 0.05, Duplicate: 0.05, Misroute: 0.05, Reorder: 0.05}))
	svc, aps := procs[0], slot0APs(procs[0], 3)

	const joins = 6
	for g := 1; g <= joins; g++ {
		if err := svc.JoinAt(ctx, GUID(g), aps[(g*3)%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
	}
	// Retransmission must push every join through the fault gauntlet;
	// convergence is awaited rather than settled because a reordered
	// datagram can be held across the local quiescence point.
	clusterSettle(t, func() bool {
		members, err := svc.Members(ctx)
		return err == nil && len(members) == joins
	})

	var received, faults uint64
	for _, p := range procs {
		ns := netStatsOf(t, p)
		received += ns.Received
		faults += ns.FaultCorrupt + ns.FaultReplay + ns.FaultMisroute + ns.FaultReorder
	}
	if received == 0 {
		t.Fatal("faulted run exchanged no datagrams")
	}
	if faults == 0 {
		t.Fatal("no faults were injected — the gauntlet never fired")
	}
}

// TestFaultsSimDeterminism: the engine-level fault injector draws from
// its own seeded RNG, so two simulated runs with the same seeds replay
// the identical faulted history — same event sequence, same final
// membership, same fault counters.
func TestFaultsSimDeterminism(t *testing.T) {
	ctx := context.Background()
	type outcome struct {
		events  []string
		members []string
		faults  FaultStats
	}
	run := func() outcome {
		svc := openTest(t, WithHierarchy(2, 4), WithSeed(9),
			WithFaults(FaultPlan{Seed: 7, Corrupt: 0.02, Duplicate: 0.02, Misroute: 0.02, Reorder: 0.02}))
		events, err := svc.Watch(ctx)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		aps := svc.APs()
		for g := 1; g <= 8; g++ {
			must(svc.JoinAt(ctx, GUID(g), aps[(g*3)%len(aps)]))
		}
		must(svc.Settle(ctx))
		must(svc.Handoff(ctx, GUID(2), aps[0]))
		must(svc.Leave(ctx, GUID(3)))
		must(svc.Settle(ctx))

		var o outcome
	drain:
		for {
			select {
			case ev := <-events:
				o.events = append(o.events, ev.String())
			default:
				break drain
			}
		}
		members, err := svc.Members(ctx)
		if err != nil {
			t.Fatal(err)
		}
		o.members = renderMembers(members)
		ft, ok := svc.rt.Transport().(*rgbruntime.FaultTransport)
		if !ok {
			t.Fatalf("WithFaults did not install a fault transport (got %T)", svc.rt.Transport())
		}
		o.faults = ft.FaultStats()
		return o
	}

	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted runs diverged:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if total := a.faults.Corrupted + a.faults.Undecodable + a.faults.Duplicated +
		a.faults.Misrouted + a.faults.Reordered; total == 0 {
		t.Fatal("no faults were injected — the determinism check is vacuous")
	}
	if len(a.members) == 0 {
		t.Fatal("scenario left no members — not a meaningful check")
	}
}

// TestDuplicatedFrameIsNotAnotherRing: a BMS query waits for one reply
// per bottom ring. A replayed Query frame makes a ring answer twice and
// a replayed QueryReply delivers one answer twice; neither is another
// ring, so the answer must still hold every member and report exactly
// the rings there are. Counted per reply, 77 of these 200 answers came
// back short (as few as 24 of 54 members) while claiming Replies == 9.
func TestDuplicatedFrameIsNotAnotherRing(t *testing.T) {
	ctx := context.Background()
	const members, queries = 54, 10
	short := 0
	for seed := uint64(1); seed <= 20; seed++ {
		svc := openTest(t, WithHierarchy(3, 3), WithSeed(seed), WithFaults(FaultPlan{Seed: seed, Duplicate: 0.02}))
		aps := svc.APs()
		joinSettled(t, svc, members)
		for q := 0; q < queries; q++ {
			res, err := svc.QueryWith(ctx, aps[q%len(aps)], BMS(3))
			if err != nil {
				t.Fatalf("seed %d query %d: %v", seed, q, err)
			}
			if res.Replies != 9 {
				t.Errorf("seed %d query %d: Replies = %d, want 9", seed, q, res.Replies)
			}
			if len(res.Members) != members {
				short++
				t.Logf("seed %d query %d: %d of %d members from %d replies", seed, q, len(res.Members), members, res.Replies)
			}
		}
	}
	if short != 0 {
		t.Errorf("%d of %d answers short", short, 20*queries)
	}
}
