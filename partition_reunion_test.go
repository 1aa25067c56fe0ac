package rgb

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// blockSlots cuts svc's process off from the given peer slots.
func blockSlots(t *testing.T, svc *Service, slots ...int) {
	t.Helper()
	if err := svc.Cluster().Block(slots...); err != nil {
		t.Fatal(err)
	}
}

// unblock removes svc's cut.
func unblock(t *testing.T, svc *Service) {
	t.Helper()
	if err := svc.Cluster().Unblock(); err != nil {
		t.Fatal(err)
	}
}

// TestAsymmetricPartitionReunion drives the organic (probe/merge)
// reunion path over live sockets. Cutting one process away from the
// other three is asymmetric: the isolated leader's token passes fail,
// so it repairs its topmost ring down to a solo roster, while the
// majority must notice the silent leader on its own (leader suspicion,
// or — when a token died in the cut — receiveProbe's split detection,
// unit-tested in internal/core). Whichever path fires, the ring must
// reunite promptly after the heal: every process reports a full
// topmost roster under one leader (RingView), and a removal issued
// right after reunion must stick everywhere — no stale fragment list
// survives to resurrect it through the tombstone-less union merge.
func TestAsymmetricPartitionReunion(t *testing.T) {
	ctx := context.Background()
	addrs := reservePorts(t, 4)
	procs := make([]*Service, 4)
	for i := range procs {
		svc, err := Listen(addrs[i],
			WithHierarchy(2, 4), WithSeed(1),
			WithHeartbeat(250*time.Millisecond),
			WithCluster(i, addrs...))
		if err != nil {
			t.Fatalf("Listen[%d]: %v", i, err)
		}
		t.Cleanup(func() { svc.Close() })
		procs[i] = svc
	}
	aps := procs[0].APs()

	live := map[GUID]bool{}
	for g := 1; g <= 4; g++ {
		// One member per process, joined at that process's first AP.
		if err := procs[g-1].JoinAt(ctx, GUID(g), aps[4*(g-1)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
		live[GUID(g)] = true
	}
	viewOf := func(svc *Service) map[GUID]bool {
		members, err := svc.Members(ctx)
		if err != nil {
			return nil
		}
		got := map[GUID]bool{}
		for _, m := range members {
			if m.Status.Operational() {
				got[m.GUID] = true
			}
		}
		return got
	}
	awaitMembers := func(label string, timeout time.Duration) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			all := true
			for _, svc := range procs {
				if !reflect.DeepEqual(viewOf(svc), live) {
					all = false
				}
			}
			if all {
				return
			}
			if time.Now().After(deadline) {
				for i, svc := range procs {
					t.Logf("%s: proc %d members=%v", label, i, viewOf(svc))
				}
				t.Fatalf("%s: no agreement on %v within %s", label, live, timeout)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	awaitMembers("steady", 30*time.Second)

	// Asymmetric cut: [0] | [1 2 3], both directions.
	blockSlots(t, procs[0], 1, 2, 3)
	for _, i := range []int{1, 2, 3} {
		blockSlots(t, procs[i], 0)
	}
	// Hold the cut until the isolated leader has repaired its ring all
	// the way down to itself — the fully asymmetric state: one side
	// roster=[BR-0], the other side full roster, no leader traffic.
	soloDeadline := time.Now().Add(10 * time.Second)
	for {
		v, err := procs[0].RingView(ctx)
		if err != nil {
			t.Fatalf("RingView[0]: %v", err)
		}
		if v.Hosted && v.Roster == 1 {
			break
		}
		if time.Now().After(soloDeadline) {
			t.Fatalf("isolated side never repaired down to itself: %+v", v)
		}
		time.Sleep(100 * time.Millisecond)
	}
	for i, svc := range procs {
		v, _ := svc.RingView(ctx)
		t.Logf("at heal: proc %d %+v", i, v)
	}
	for _, svc := range procs {
		unblock(t, svc)
	}

	// The ring must reunite promptly — full roster, one leader — via
	// the probe/merge exchange, not the slow staleness sweep.
	deadline := time.Now().Add(15 * time.Second)
	for {
		views := make([]RingView, len(procs))
		united := true
		for i, svc := range procs {
			v, err := svc.RingView(ctx)
			if err != nil {
				t.Fatalf("RingView[%d]: %v", i, err)
			}
			views[i] = v
			if !v.Hosted || v.Roster != 4 || v.Leader != views[0].Leader {
				united = false
			}
		}
		if united {
			t.Logf("ring united: %+v", views)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring still split after heal: %+v", views)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// A removal right after reunion must stick everywhere: no stale
	// fragment list remains to resurrect it.
	if err := procs[0].Leave(ctx, GUID(1)); err != nil {
		t.Fatalf("leave: %v", err)
	}
	delete(live, GUID(1))
	awaitMembers("post-leave", 30*time.Second)
}

// TestLeaveDuringCutNotResurrected: a member that leaves inside the
// majority fragment while the partition holds must stay gone after the
// heal. The isolated process still carries the member in its stale
// lists; without the removal tombstones riding the Snapshot and
// MergeRequest frames, the reunion union would resurrect it.
func TestLeaveDuringCutNotResurrected(t *testing.T) {
	removalDuringCut(t, false)
}

// TestFailDuringCutNotResurrected: like leave-during-cut, but the
// member fails (faulty disconnection detected by its AP) while the
// partition holds — the tombstone must equally outrank the isolated
// side's stale entry.
func TestFailDuringCutNotResurrected(t *testing.T) {
	removalDuringCut(t, true)
}

// removalDuringCut cuts one process away, removes a majority-side
// member while the cut holds, heals, and requires the reunited
// deployment to agree the member is gone — the merge-tombstone
// resurrection regression.
func removalDuringCut(t *testing.T, fail bool) {
	ctx := context.Background()
	addrs := reservePorts(t, 4)
	procs := make([]*Service, 4)
	for i := range procs {
		svc, err := Listen(addrs[i],
			WithHierarchy(2, 4), WithSeed(1),
			WithHeartbeat(250*time.Millisecond),
			WithCluster(i, addrs...))
		if err != nil {
			t.Fatalf("Listen[%d]: %v", i, err)
		}
		t.Cleanup(func() { svc.Close() })
		procs[i] = svc
	}
	aps := procs[0].APs()

	live := map[GUID]bool{}
	for g := 1; g <= 4; g++ {
		if err := procs[g-1].JoinAt(ctx, GUID(g), aps[4*(g-1)]); err != nil {
			t.Fatalf("join %d: %v", g, err)
		}
		live[GUID(g)] = true
	}
	viewOf := func(svc *Service) map[GUID]bool {
		members, err := svc.Members(ctx)
		if err != nil {
			return nil
		}
		got := map[GUID]bool{}
		for _, m := range members {
			if m.Status.Operational() {
				got[m.GUID] = true
			}
		}
		return got
	}
	awaitMembers := func(label string, who []*Service, timeout time.Duration) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			all := true
			for _, svc := range who {
				if !reflect.DeepEqual(viewOf(svc), live) {
					all = false
				}
			}
			if all {
				return
			}
			if time.Now().After(deadline) {
				for i, svc := range procs {
					t.Logf("%s: proc %d members=%v", label, i, viewOf(svc))
				}
				t.Fatalf("%s: no agreement on %v within %s", label, live, timeout)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	awaitMembers("steady", procs, 30*time.Second)

	// Cut [0] | [1 2 3] and hold it until the isolated leader repaired
	// down to a solo roster (its lists are now maximally stale).
	blockSlots(t, procs[0], 1, 2, 3)
	for _, i := range []int{1, 2, 3} {
		blockSlots(t, procs[i], 0)
	}
	soloDeadline := time.Now().Add(10 * time.Second)
	for {
		v, err := procs[0].RingView(ctx)
		if err != nil {
			t.Fatalf("RingView[0]: %v", err)
		}
		if v.Hosted && v.Roster == 1 {
			break
		}
		if time.Now().After(soloDeadline) {
			t.Fatalf("isolated side never repaired down to itself: %+v", v)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The removal happens inside the majority fragment, invisible to
	// the isolated process.
	var err error
	if fail {
		err = procs[1].Fail(ctx, GUID(2))
	} else {
		err = procs[1].Leave(ctx, GUID(2))
	}
	if err != nil {
		t.Fatalf("remove during cut: %v", err)
	}
	delete(live, GUID(2))
	awaitMembers("majority post-removal", procs[1:], 30*time.Second)

	for _, svc := range procs {
		unblock(t, svc)
	}

	// After the heal the ring reunites and — the point of the test —
	// the departed member must not be resurrected by the isolated
	// side's stale lists folding back in.
	deadline := time.Now().Add(15 * time.Second)
	for {
		views := make([]RingView, len(procs))
		united := true
		for i, svc := range procs {
			v, err := svc.RingView(ctx)
			if err != nil {
				t.Fatalf("RingView[%d]: %v", i, err)
			}
			views[i] = v
			if !v.Hosted || v.Roster != 4 || v.Leader != views[0].Leader {
				united = false
			}
		}
		if united {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring still split after heal: %+v", views)
		}
		time.Sleep(100 * time.Millisecond)
	}
	awaitMembers("reunited", procs, 30*time.Second)
}
