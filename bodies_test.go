package rgb

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/wire"
)

// netCycleAllocBudget is what a warm join, handoff and leave of one
// member allocate together on three loopback processes at h=3 r=3, in
// objects, every process and the test itself included: 64 with each
// decoded token, notification and acknowledgement in a new body. What is
// left is the decoded tokens' Ops, Route and Contributors (about 22),
// the test's own wait timers (9), the Service's and the System's boxed
// submissions (6), the three drained MQ batches a round takes as its
// Ops, and the Member record of the join.
const netCycleAllocBudget = 46

// TestNetworkedCycleAllocBudget locks the claim that a round body that
// crosses processes allocates nothing: join → handoff → leave of one
// member, submitted on process 0 and each seen to commit on process 1,
// stays within netCycleAllocBudget objects a cycle once warm.
func TestNetworkedCycleAllocBudget(t *testing.T) {
	procs := listenProcs(t, 3, WithHierarchy(3, 3), WithSeed(3))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := procs[1].Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	aps := slot0APs(procs[0], len(procs))
	await := func(g GUID, kind MembershipEventKind) {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for {
			select {
			case ev := <-events:
				if ev.Member.GUID == g && ev.Kind == kind {
					return
				}
			case <-timeout:
				t.Fatalf("the %s of %v never reached process 1", kind, g)
			}
		}
	}
	cycle := func(i int) {
		t.Helper()
		g := GUID(i%4 + 1)
		if err := procs[0].JoinAt(ctx, g, aps[i%len(aps)]); err != nil {
			t.Fatal(err)
		}
		await(g, EventJoin)
		if err := procs[0].Handoff(ctx, g, aps[(i+1)%len(aps)]); err != nil {
			t.Fatal(err)
		}
		await(g, EventHandoff)
		if err := procs[0].Leave(ctx, g); err != nil {
			t.Fatal(err)
		}
		await(g, EventLeave)
	}
	const warm, cycles = 40, 100
	for i := range warm {
		cycle(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range cycles {
		cycle(warm + i)
	}
	runtime.ReadMemStats(&after)
	perCycle := float64(after.Mallocs-before.Mallocs) / cycles
	t.Logf("join, handoff and leave on three processes: %.0f objects a cycle", perCycle)
	// Half an object a cycle over the budget is what an allocation of
	// another goroutine in 50 of the cycles would add.
	if perCycle > netCycleAllocBudget+0.5 {
		t.Errorf("a join, handoff and leave on three processes allocate %.0f objects, budget %d", perCycle, netCycleAllocBudget)
	}
}

// TestRecycleGuardNetworked runs joins, handoffs and leaves on three
// loopback processes with the recycle guard on: each member's changes
// are submitted on its own process, so rounds start in all three, and
// every round body crosses the socket in both directions. A body handed
// back twice (by the transport that encoded it and by its receiver, or
// by a receiver handed the socket record's own copy) panics; one read
// after it was handed back is poisoned and derails its round, so some
// process would not end on the script's membership.
func TestRecycleGuardNetworked(t *testing.T) {
	wire.RecycleGuard.Store(true)
	t.Cleanup(func() { wire.RecycleGuard.Store(false) })
	procs := listenProcs(t, 3, WithHierarchy(3, 3), WithSeed(5))
	ctx := context.Background()
	aps := procs[0].APs()
	const members = 24
	home := func(g int) *Service { return procs[g%len(procs)] }
	converge := func(want []GUID) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for i, svc := range procs {
			for {
				ms, err := svc.Members(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]GUID, 0, len(ms))
				for _, m := range ms {
					got = append(got, m.GUID)
				}
				if slices.Sort(got); slices.Equal(got, want) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("process %d lists %v, want %v", i, got, want)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	var want []GUID
	for g := 1; g <= members; g++ {
		if err := home(g).JoinAt(ctx, GUID(g), aps[(g*7)%len(aps)]); err != nil {
			t.Fatal(err)
		}
		want = append(want, GUID(g))
	}
	converge(want)
	for g := 1; g <= members/2; g++ {
		if err := home(g).Handoff(ctx, GUID(g), aps[(g*11+3)%len(aps)]); err != nil {
			t.Fatal(err)
		}
	}
	for g := 1; g <= members/4; g++ {
		if err := home(g).Leave(ctx, GUID(g)); err != nil {
			t.Fatal(err)
		}
	}
	converge(want[members/4:])
	assertDatagramsFlowed(t, procs)
}
