package rgb

import (
	"context"
	"strings"
	"testing"
	"time"
)

// watchGoldenSequence pins the exact event sequence a Watch
// subscriber observes for a fixed-seed scenario on the deterministic
// simulated runtime: joins committing in top-ring order, a handoff, a
// leave, then a crash detected and repaired while a join propagates.
// It is the causal-order contract of the subscription API: any change
// to commit order, deduplication or repair reporting shows up as a
// diff here. Re-pin only for a deliberate semantic change (use the
// sequence printed by the failure and call it out in the PR).
var watchGoldenSequence = []string{
	// The three concurrent joins commit in jittered-latency order,
	// fixed by the seed.
	"join guid=mh-1 ap=AP-0",
	"join guid=mh-3 ap=AP-4",
	"join guid=mh-2 ap=AP-9",
	"handoff guid=mh-1 ap=AP-9",
	"leave guid=mh-2 ap=AP-9",
	// The final join commits before the repair surfaces: the leader's
	// upward notification outruns the retransmission timeout that
	// detects the crashed successor.
	"join guid=mh-4 ap=AP-0",
	"repair ring=APR-1 dead=AP-1",
}

func TestWatchGoldenEventSequence(t *testing.T) {
	ctx := context.Background()
	svc := openTest(t, WithHierarchy(2, 4), WithSeed(5))
	events, err := svc.Watch(ctx)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	aps := svc.APs()

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Three joins commit in deterministic top-ring order.
	must(svc.JoinAt(ctx, GUID(1), aps[0]))
	must(svc.JoinAt(ctx, GUID(2), aps[9]))
	must(svc.JoinAt(ctx, GUID(3), aps[4]))
	must(svc.Settle(ctx))
	// A handoff and a leave follow causally.
	must(svc.Handoff(ctx, GUID(1), aps[9]))
	must(svc.Settle(ctx))
	must(svc.Leave(ctx, GUID(2)))
	must(svc.Settle(ctx))
	// Crash a ring-mate of AP-0, then join there: token
	// retransmission detects the dead successor, repairs the ring
	// (repair event), and the join still commits afterwards.
	var victim NodeID
	svc.Inspect(func(sys *System) { victim = sys.Node(aps[0]).Roster()[1] })
	must(svc.Crash(ctx, victim))
	must(svc.JoinAt(ctx, GUID(4), aps[0]))
	must(svc.Settle(ctx))

	var got []string
drain:
	for {
		select {
		case ev := <-events:
			got = append(got, ev.String())
		default:
			break drain
		}
	}
	want := watchGoldenSequence
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("watch event sequence changed:\n got:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestWatchEventsDeduplicated: a mid-round repair re-circulates the
// token's batch; the member events behind it must still surface
// exactly once.
func TestWatchEventsDeduplicated(t *testing.T) {
	ctx := context.Background()
	svc := openTest(t, WithHierarchy(2, 5), WithSeed(11))
	events, err := svc.Watch(ctx)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	aps := svc.APs()
	// Crash two entities of the origin ring so the join's round
	// repairs mid-flight and re-circulates its ops.
	var victims []NodeID
	svc.Inspect(func(sys *System) {
		roster := sys.Node(aps[0]).Roster()
		victims = []NodeID{roster[2], roster[3]}
	})
	for _, v := range victims {
		if err := svc.Crash(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.JoinAt(ctx, GUID(1), aps[0]); err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	joins, repairs := 0, 0
	for {
		select {
		case ev := <-events:
			switch ev.Kind {
			case EventJoin:
				joins++
			case EventRepair:
				repairs++
			}
			continue
		default:
		}
		break
	}
	if joins != 1 {
		t.Fatalf("join observed %d times, want exactly 1", joins)
	}
	if repairs != 2 {
		t.Fatalf("repairs observed = %d, want 2", repairs)
	}
}

// TestWatchSlowConsumer pins the documented overflow contract: a
// subscriber that never drains its channel keeps exactly the first
// buffered events in commit order and loses the overflow —
// broadcast never blocks the engine on a lagging consumer.
func TestWatchSlowConsumer(t *testing.T) {
	ctx := context.Background()
	const buf = 4
	svc := openTest(t, WithHierarchy(2, 3), WithSeed(11), withWatchBuffer(buf))
	events, err := svc.Watch(ctx)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}

	// Commit well over a buffer's worth of joins without reading. The
	// joins are settled one at a time so the commit order (and thus
	// which events survive the overflow) is exact.
	aps := svc.APs()
	const joins = 3 * buf
	for g := 1; g <= joins; g++ {
		if err := svc.JoinAt(ctx, GUID(g), aps[g%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
		if err := svc.Settle(ctx); err != nil {
			t.Fatalf("settle: %v", err)
		}
	}

	// The channel now holds exactly the first buf commits; the rest
	// overflowed and were dropped.
	var got []GUID
drain:
	for {
		select {
		case ev := <-events:
			got = append(got, ev.Member.GUID)
		default:
			break drain
		}
	}
	if len(got) != buf {
		t.Fatalf("drained %d events, want exactly %d (buffer size)", len(got), buf)
	}
	for i, g := range got {
		if g != GUID(i+1) {
			t.Fatalf("event %d = %s, want mh-%d (first commits survive, overflow drops)", i, g, i+1)
		}
	}

	// A fresh subscriber is unaffected by the lagging one: new events
	// flow to both, and the laggard keeps dropping without blocking.
	fresh, err := svc.Watch(ctx)
	if err != nil {
		t.Fatalf("second Watch: %v", err)
	}
	if err := svc.JoinAt(ctx, GUID(joins+1), aps[0]); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatalf("settle: %v", err)
	}
	select {
	case ev := <-fresh:
		if ev.Member.GUID != GUID(joins+1) {
			t.Fatalf("fresh subscriber saw %s, want mh-%d", ev.Member.GUID, joins+1)
		}
	default:
		t.Fatal("fresh subscriber received nothing")
	}
}

// TestWatchOverflowEmitsDroppedEvent pins the gap-detection contract:
// once a lagging subscriber drains, the next broadcast first delivers
// a synthetic EventDropped whose Count is exactly the number of events
// lost, then resumes normal delivery.
func TestWatchOverflowEmitsDroppedEvent(t *testing.T) {
	ctx := context.Background()
	const buf = 2
	svc := openTest(t, WithHierarchy(2, 3), WithSeed(11), withWatchBuffer(buf))
	events, err := svc.Watch(ctx)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	aps := svc.APs()

	// Commit buf+3 joins without reading: the first buf fill the
	// channel, the next 3 are dropped.
	const joins = buf + 3
	for g := 1; g <= joins; g++ {
		if err := svc.JoinAt(ctx, GUID(g), aps[g%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
		if err := svc.Settle(ctx); err != nil {
			t.Fatalf("settle: %v", err)
		}
	}
	for i := 0; i < buf; i++ {
		ev := <-events
		if ev.Kind != EventJoin || ev.Member.GUID != GUID(i+1) {
			t.Fatalf("event %d = %s, want join mh-%d", i, ev, i+1)
		}
	}
	select {
	case ev := <-events:
		t.Fatalf("undrained channel held an extra event: %s", ev)
	default:
	}

	// The subscriber has drained; the next commit must be preceded by
	// the gap marker counting the 3 lost joins.
	if err := svc.JoinAt(ctx, GUID(joins+1), aps[0]); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatalf("settle: %v", err)
	}
	gap := <-events
	if gap.Kind != EventDropped {
		t.Fatalf("first post-drain event = %s, want the EventDropped gap marker", gap)
	}
	if gap.Count != joins-buf {
		t.Fatalf("gap.Count = %d, want %d", gap.Count, joins-buf)
	}
	next := <-events
	if next.Kind != EventJoin || next.Member.GUID != GUID(joins+1) {
		t.Fatalf("event after gap = %s, want join mh-%d", next, joins+1)
	}
}

// TestWatchAcrossPartitionHeal pins the subscription contract through
// a network partition: joins committing on both sides of the cut each
// surface exactly once (the merge's snapshot/NE-Join traffic must not
// replay them), a prompt subscriber sees no gap, and a subscriber that
// lagged through the cut gets one EventDropped whose Count is exactly
// the number of events it lost.
func TestWatchAcrossPartitionHeal(t *testing.T) {
	ctx := context.Background()
	// The protocol detects the cut and merges the fragments itself, and
	// its EventRepairs share the stream with the joins: up to three land
	// in one instant. So the prompt subscriber has room for four and
	// drains every millisecond.
	const buf = 4
	const beat = 250 * time.Millisecond
	svc := openTest(t, WithHierarchy(2, 5), WithSeed(3), withWatchBuffer(buf), WithHeartbeat(beat))
	drained, err := svc.Watch(ctx)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	laggy, err := svc.Watch(ctx)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	aps := svc.APs()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	var seen []MembershipEvent
	drain := func() {
		for {
			select {
			case ev := <-drained:
				seen = append(seen, ev)
			default:
				return
			}
		}
	}
	// settle runs Settle's ten heartbeat intervals in 1 ms steps,
	// draining after each.
	settle := func() {
		for d := time.Duration(0); d < 10*beat; d += time.Millisecond {
			svc.Advance(time.Millisecond)
			drain()
		}
	}

	// Two members before the cut — one per future side.
	must(svc.JoinAt(ctx, GUID(1), aps[0]))
	must(svc.JoinAt(ctx, GUID(2), aps[5]))
	settle()

	// Cut one topmost subtree away (slot 1 owns aps[5..9]) and join one
	// member on each side while the partition holds: both fragments
	// commit at their own topmost fragment, so both events surface.
	var frag []NodeID
	svc.Inspect(func(sys *System) {
		frag = sys.Hierarchy().OwnedBy(2, 1)
	})
	must(svc.Partition(ctx, frag...))
	must(svc.JoinAt(ctx, GUID(3), aps[0]))
	must(svc.JoinAt(ctx, GUID(4), aps[6]))
	settle()

	must(svc.Heal(ctx))
	settle()

	// Every join exactly once, and never a gap for the prompt reader.
	joins := map[GUID]int{}
	for _, ev := range seen {
		switch ev.Kind {
		case EventJoin:
			joins[ev.Member.GUID]++
		case EventDropped:
			t.Fatalf("drained subscriber saw a gap marker: %s", ev)
		}
	}
	for g := 1; g <= 4; g++ {
		if joins[GUID(g)] != 1 {
			t.Errorf("join mh-%d observed %d times, want exactly 1 (partition/merge must not drop or replay commits)", g, joins[GUID(g)])
		}
	}

	// The laggy subscriber kept only the first buf events; once it
	// drains, the next commit is preceded by the gap marker counting
	// everything it lost through the cut and merge.
	for i := 0; i < buf; i++ {
		ev := <-laggy
		if ev.String() != seen[i].String() {
			t.Fatalf("laggy event %d = %s, want %s (first commits survive)", i, ev, seen[i])
		}
	}
	select {
	case ev := <-laggy:
		t.Fatalf("laggy channel held more than its buffer: %s", ev)
	default:
	}
	must(svc.JoinAt(ctx, GUID(5), aps[1]))
	must(svc.Settle(ctx))
	gap := <-laggy
	if gap.Kind != EventDropped {
		t.Fatalf("first post-drain laggy event = %s, want EventDropped", gap)
	}
	if want := len(seen) - buf; gap.Count != want {
		t.Fatalf("gap.Count = %d, want %d", gap.Count, want)
	}
	if next := <-laggy; next.Kind != EventJoin || next.Member.GUID != GUID(5) {
		t.Fatalf("event after gap = %s, want join mh-5", next)
	}
}

// TestCloseUnblocksWatchers: Close must close every subscriber
// channel so goroutines blocked in receive all wake up.
func TestCloseUnblocksWatchers(t *testing.T) {
	ctx := context.Background()
	svc := openTest(t, WithHierarchy(2, 3), WithSeed(1))

	const watchers = 5
	done := make(chan struct{}, watchers)
	for i := 0; i < watchers; i++ {
		events, err := svc.Watch(ctx)
		if err != nil {
			t.Fatalf("Watch %d: %v", i, err)
		}
		go func() {
			for range events {
				// Drain until closed.
			}
			done <- struct{}{}
		}()
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < watchers; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("watcher %d still blocked after Close", i)
		}
	}
}
