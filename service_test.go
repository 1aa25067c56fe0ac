package rgb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
)

func openTest(t *testing.T, opts ...Option) *Service {
	t.Helper()
	svc, err := Open(opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func TestOpenValidatesOptions(t *testing.T) {
	if _, err := Open(WithHierarchy(0, 5)); !errors.Is(err, ErrBadHierarchy) {
		t.Fatalf("h=0: err = %v, want ErrBadHierarchy", err)
	}
	if _, err := Open(WithHierarchy(3, 1)); !errors.Is(err, ErrBadHierarchy) {
		t.Fatalf("r=1: err = %v, want ErrBadHierarchy", err)
	}
}

func TestServiceLifecycle(t *testing.T) {
	ctx := context.Background()
	svc := openTest(t, WithHierarchy(2, 4), WithSeed(3))

	topo := svc.Topology()
	if topo.Levels != 2 || topo.RingSize != 4 || topo.APs != 16 {
		t.Fatalf("topology = %+v", topo)
	}
	aps := svc.APs()
	if len(aps) != 16 {
		t.Fatalf("APs = %d", len(aps))
	}

	ap, err := svc.Join(ctx, GUID(1))
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := svc.JoinAt(ctx, GUID(2), aps[5]); err != nil {
		t.Fatalf("JoinAt: %v", err)
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatalf("Settle: %v", err)
	}
	members, err := svc.Members(ctx)
	if err != nil {
		t.Fatalf("Members: %v", err)
	}
	if len(members) != 2 {
		t.Fatalf("members = %v", members)
	}
	found := false
	for _, m := range members {
		if m.GUID == 1 && m.AP == ap {
			found = true
		}
	}
	if !found {
		t.Fatalf("member 1 not at Join's reported AP %s: %v", ap, members)
	}

	// Typed errors surface through the service.
	if err := svc.JoinAt(ctx, GUID(1), aps[0]); !errors.Is(err, ErrDuplicateJoin) {
		t.Fatalf("duplicate join err = %v", err)
	}
	if err := svc.Leave(ctx, GUID(99)); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("unknown leave err = %v", err)
	}

	res, err := svc.Query(ctx, aps[3])
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Members) != 2 {
		t.Fatalf("query answered %d members", len(res.Members))
	}

	// Close: further calls fail with ErrClosed; Close is idempotent.
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := svc.JoinAt(ctx, GUID(3), aps[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close err = %v", err)
	}
	if _, err := svc.Watch(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Watch err = %v", err)
	}
	live := openTest(t, WithHierarchy(2, 4), withLoopback())
	if err := live.Close(); err != nil {
		t.Fatalf("live Close: %v", err)
	}
	for name, s := range map[string]*Service{"sim": svc, "live": live} {
		if err := s.Settle(ctx); !errors.Is(err, ErrClosed) {
			t.Errorf("post-close Settle (%s) err = %v", name, err)
		}
	}

	pathOnlyCfg := DefaultConfig(2, 4)
	pathOnlyCfg.Dissemination = DisseminatePathOnly
	pathOnly := openTest(t, WithConfig(pathOnlyCfg))
	if got := pathOnly.Config().Dissemination; got != DisseminatePathOnly {
		t.Fatalf("WithConfig with DisseminatePathOnly: Config().Dissemination = %v", got)
	}
	ap, err = pathOnly.Join(ctx, GUID(4))
	if err != nil {
		t.Fatalf("path-only Join: %v", err)
	}
	if err := pathOnly.Settle(ctx); err != nil {
		t.Fatalf("path-only Settle: %v", err)
	}
	if members, err := pathOnly.Members(ctx); err != nil || len(members) != 1 || members[0].GUID != 4 || members[0].AP != ap {
		t.Fatalf("path-only Members = %v, %v; want GUID 4 at %s", members, err, ap)
	}
}

func TestServiceContextCancelled(t *testing.T) {
	svc := openTest(t, WithHierarchy(2, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := svc.JoinAt(ctx, GUID(1), svc.APs()[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := svc.Query(ctx, svc.APs()[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("query err = %v, want context.Canceled", err)
	}
}

// scenarioScript drives one fixed mixed scenario — a generated churn
// trace plus direct API operations — and returns the converged
// authoritative membership as "guid@ap[status]" strings. LUIDs are
// deliberately excluded: they number submissions per AP, and a live
// runtime does not totally order same-instant trace submissions the
// way the virtual clock does.
func scenarioScript(t *testing.T, svc *Service) []string {
	t.Helper()
	ctx := context.Background()
	aps := svc.APs()

	churn := ChurnConfig{
		InitialMembers: 12,
		JoinRate:       10,
		LeaveRate:      5,
		FailRate:       1,
		Duration:       300 * time.Millisecond,
		Seed:           77,
	}
	tr := ChurnOver(aps, churn, 100)
	svc.ApplyTrace(tr)
	svc.Advance(churn.Duration + 50*time.Millisecond)

	for g := 1; g <= 8; g++ {
		if err := svc.JoinAt(ctx, GUID(g), aps[(g*3)%len(aps)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatalf("settle: %v", err)
	}
	for g := 1; g <= 4; g++ {
		if err := svc.Handoff(ctx, GUID(g), aps[(g*5+1)%len(aps)]); err != nil {
			t.Fatalf("handoff %d: %v", g, err)
		}
	}
	if err := svc.Leave(ctx, GUID(5)); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if err := svc.Fail(ctx, GUID(6)); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatalf("settle: %v", err)
	}

	members, err := svc.Members(ctx)
	if err != nil {
		t.Fatalf("members: %v", err)
	}
	out := make([]string, 0, len(members))
	for _, m := range members {
		out = append(out, fmt.Sprintf("%s@%s[%v]", m.GUID, m.AP, m.Status))
	}
	sort.Strings(out)
	return out
}

// TestCrossRuntimeEquivalence is the acceptance check of the runtime
// split: the same scenario driven through the deterministic simulated
// runtime and through the live goroutine/timer runtime converges to
// the identical GlobalMembership set — same members at the same
// locations with the same statuses.
func TestCrossRuntimeEquivalence(t *testing.T) {
	sim := openTest(t, WithHierarchy(2, 4), WithSeed(9))
	simMembers := scenarioScript(t, sim)

	live := openTest(t, WithHierarchy(2, 4), WithSeed(9), withLoopback())
	liveMembers := scenarioScript(t, live)

	if len(simMembers) == 0 {
		t.Fatal("scenario left no members — not a meaningful equivalence check")
	}
	if !reflect.DeepEqual(simMembers, liveMembers) {
		t.Fatalf("membership diverged across runtimes:\nsim:  %v\nlive: %v", simMembers, liveMembers)
	}
}

// TestLiveRuntimeWatch: the event stream works identically over the
// live runtime — every committed change surfaces exactly once.
func TestLiveRuntimeWatch(t *testing.T) {
	ctx := context.Background()
	svc := openTest(t, WithHierarchy(2, 4), WithSeed(2), withLoopback())
	events, err := svc.Watch(ctx)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	aps := svc.APs()
	const joins = 6
	for g := 1; g <= joins; g++ {
		if err := svc.JoinAt(ctx, GUID(g), aps[g%len(aps)]); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	if err := svc.Settle(ctx); err != nil {
		t.Fatalf("settle: %v", err)
	}
	seen := map[GUID]int{}
	for i := 0; i < joins; i++ {
		select {
		case ev := <-events:
			if ev.Kind != EventJoin {
				t.Fatalf("event %d = %s, want join", i, ev)
			}
			seen[ev.Member.GUID]++
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for event %d", i)
		}
	}
	for g := 1; g <= joins; g++ {
		if seen[GUID(g)] != 1 {
			t.Fatalf("join of %d observed %d times", g, seen[GUID(g)])
		}
	}
}

// TestWatchUnsubscribe: cancelling the context closes the stream.
func TestWatchUnsubscribe(t *testing.T) {
	svc := openTest(t, WithHierarchy(2, 4))
	ctx, cancel := context.WithCancel(context.Background())
	events, err := svc.Watch(ctx)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	cancel()
	select {
	case _, ok := <-events:
		if ok {
			t.Fatal("expected closed channel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("channel not closed after cancel")
	}
}

// TestPartitionErrorContract pins what Partition and Heal refuse. A
// fragment is checked against the hierarchy's rings, not against who is
// up, and a cut needs heartbeats: without them the fragments would never
// probe each other, so they would never merge.
func TestPartitionErrorContract(t *testing.T) {
	ctx := context.Background()
	const beat = 250 * time.Millisecond
	slot1 := func(svc *Service) (frag []NodeID) {
		svc.Inspect(func(sys *System) { frag = sys.Hierarchy().OwnedBy(2, 1) })
		return frag
	}
	cases := []struct {
		name string
		opts []Option
		call func(*testing.T, *Service) error
		want error
	}{
		{"second cut", []Option{WithHeartbeat(beat)}, func(t *testing.T, svc *Service) error {
			if err := svc.Partition(ctx, slot1(svc)...); err != nil {
				t.Fatalf("first cut: %v", err)
			}
			return svc.Partition(ctx, slot1(svc)...)
		}, ErrPartitioned},
		{"heal without a cut", []Option{WithHeartbeat(beat)}, func(t *testing.T, svc *Service) error {
			return svc.Heal(ctx)
		}, ErrNotPartitioned},
		{"heal twice", []Option{WithHeartbeat(beat)}, func(t *testing.T, svc *Service) error {
			if err := svc.Partition(ctx, slot1(svc)...); err != nil {
				t.Fatalf("cut: %v", err)
			}
			if err := svc.Heal(ctx); err != nil {
				t.Fatalf("heal: %v", err)
			}
			return svc.Heal(ctx)
		}, ErrNotPartitioned},
		{"empty fragment", []Option{WithHeartbeat(beat)}, func(t *testing.T, svc *Service) error {
			return svc.Partition(ctx)
		}, ErrBadFragment},
		{"whole ring splits no ring", []Option{WithHeartbeat(beat)}, func(t *testing.T, svc *Service) error {
			var ring []NodeID
			svc.Inspect(func(sys *System) { ring = sys.Node(svc.APs()[0]).Roster() })
			return svc.Partition(ctx, ring...)
		}, ErrBadFragment},
		{"no heartbeat", nil, func(t *testing.T, svc *Service) error {
			return svc.Partition(ctx, slot1(svc)...)
		}, ErrOptionUnsupported},
		{"live runtime", []Option{WithHeartbeat(beat), withLoopback()}, func(t *testing.T, svc *Service) error {
			return svc.Partition(ctx, slot1(svc)...)
		}, ErrOptionUnsupported},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := openTest(t, append([]Option{WithHierarchy(2, 5), WithSeed(1)}, tc.opts...)...)
			if err := tc.call(t, svc); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestServiceDoAllocatesNothing: a Service call on a live runtime takes
// a recycled call record, so do itself allocates nothing beyond what its
// fn does; a call after Close reports ErrClosed without running fn.
func TestServiceDoAllocatesNothing(t *testing.T) {
	svc := openTest(t, withLoopback(), WithHierarchy(2, 3))
	ran := 0
	fn := func() error { ran++; return nil }
	ctx := context.Background()
	if err := svc.do(ctx, fn); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = svc.do(ctx, fn) }); allocs != 0 {
		t.Errorf("do allocates %.1f objects", allocs)
	}
	if ran != 102 {
		t.Fatalf("fn ran %d times, want 102", ran)
	}
	svc.Close()
	if err := svc.do(ctx, fn); !errors.Is(err, ErrClosed) || ran != 102 {
		t.Fatalf("do after Close: err = %v, fn ran %d times; want ErrClosed, 102", err, ran)
	}
}
