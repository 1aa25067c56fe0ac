package core

import (
	"errors"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/analytic"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/runtime"
)

// mustHops measures dissemination hops, failing the test on error.
func mustHops(t *testing.T, sys *System, guid ids.GUID, ap ids.NodeID) uint64 {
	t.Helper()
	hops, err := sys.MeasureDisseminationHops(guid, ap)
	if err != nil {
		t.Fatalf("MeasureDisseminationHops: %v", err)
	}
	return hops
}

// quietConfig returns a deterministic, heartbeat-free configuration
// with constant latency, suitable for exact message accounting.
func quietConfig(h, r int) Config {
	cfg := DefaultConfig(h, r)
	cfg.Latency = runtime.ConstantLatency(time.Millisecond)
	return cfg
}

// TestDisseminationHopsMatchFormula6 is the E1 core result: a single
// Member-Join propagated with full dissemination crosses exactly
// HCN_Ring(h, r) = (r+1)·tn − 1 propagation messages — the measured
// counterpart of Table I's ring column.
func TestDisseminationHopsMatchFormula6(t *testing.T) {
	cases := []struct{ h, r int }{
		{1, 5}, {2, 5}, {3, 5}, {2, 10}, {3, 10}, {2, 3}, {3, 3}, {4, 3},
	}
	for _, c := range cases {
		sys := NewSystem(quietConfig(c.h, c.r))
		ap := sys.APs()[0]
		got := mustHops(t, sys, ids.GUID(1), ap)
		var want uint64
		if c.h == 1 {
			// A single ring has no inter-ring links: r token hops.
			want = uint64(c.r)
		} else {
			want = uint64(analytic.HCNRing(c.h, c.r))
		}
		if got != want {
			t.Errorf("h=%d r=%d: measured %d hops, formula says %d", c.h, c.r, got, want)
		}
	}
}

// TestDisseminationHopsIndependentOfOrigin: the worst-case cost is the
// same wherever the change enters.
func TestDisseminationHopsIndependentOfOrigin(t *testing.T) {
	for _, apIdx := range []int{0, 7, 24} {
		sys := NewSystem(quietConfig(2, 5))
		got := mustHops(t, sys, ids.GUID(1), sys.APs()[apIdx])
		if want := uint64(analytic.HCNRing(2, 5)); got != want {
			t.Errorf("origin AP[%d]: %d hops, want %d", apIdx, got, want)
		}
	}
}

// TestPathOnlyHops measures the E4 ablation: path-only dissemination
// costs h rounds plus h−1 uplinks instead of touching all tn rings.
func TestPathOnlyHops(t *testing.T) {
	cases := []struct{ h, r int }{{2, 5}, {3, 5}, {3, 10}}
	for _, c := range cases {
		cfg := quietConfig(c.h, c.r)
		cfg.Dissemination = DisseminatePathOnly
		sys := NewSystem(cfg)
		got := mustHops(t, sys, ids.GUID(1), sys.APs()[0])
		want := uint64(c.h*c.r + c.h - 1)
		if got != want {
			t.Errorf("h=%d r=%d path-only: %d hops, want %d", c.h, c.r, got, want)
		}
	}
}

func TestJoinReachesGlobalMembership(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	sys.JoinMemberAt(ids.GUID(7), sys.APs()[3])
	sys.Run()
	members := sys.GlobalMembership()
	if len(members) != 1 || members[0].GUID != 7 {
		t.Fatalf("global membership = %v", members)
	}
	if members[0].AP != sys.APs()[3] {
		t.Fatalf("location = %s, want %s", members[0].AP, sys.APs()[3])
	}
}

func TestJoinUpdatesAllListKinds(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	ap := sys.APs()[0]
	sys.JoinMemberAt(ids.GUID(9), ap)
	sys.Run()
	apNode := sys.Node(ap)
	if !apNode.LocalMembers().Contains(9) {
		t.Error("serving AP's ListOfLocalMembers missing the member")
	}
	if !apNode.RingMembers().Contains(9) {
		t.Error("serving AP's ListOfRingMembers missing the member")
	}
	// Ring-mates see it in ring list but not local list.
	mate := sys.Node(apNode.Roster()[1])
	if mate.LocalMembers().Contains(9) {
		t.Error("ring-mate's local list should not contain the member")
	}
	if !mate.RingMembers().Contains(9) {
		t.Error("ring-mate's ring list missing the member")
	}
	// Neighbor APs track it for fast handoff.
	next := sys.Node(apNode.Roster()[1])
	if !next.neighbors.Contains(9) {
		t.Error("successor AP's neighbor list missing the member")
	}
	// Every ring that covers the serving AP lists it, and no other.
	requireRingListsMatchCoverage(t, sys)
}

func TestLeaveRemovesEverywhere(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	sys.JoinMemberAt(ids.GUID(4), sys.APs()[2])
	sys.Run()
	sys.LeaveMember(ids.GUID(4))
	sys.Run()
	if n := len(sys.GlobalMembership()); n != 0 {
		t.Fatalf("membership after leave = %d", n)
	}
	for _, id := range sys.Hierarchy().AllNodes() {
		node := sys.Node(id)
		if node.LocalMembers().Contains(4) || node.neighbors.Contains(4) {
			t.Fatalf("node %s still lists departed member", id)
		}
	}
	requireRingListsMatchCoverage(t, sys)
}

func TestFailMemberRemoves(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	sys.JoinMemberAt(ids.GUID(5), sys.APs()[0])
	sys.Run()
	sys.FailMember(ids.GUID(5))
	sys.Run()
	if n := len(sys.GlobalMembership()); n != 0 {
		t.Fatalf("membership after failure = %d", n)
	}
}

func TestHandoffMovesLocation(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	src, dst := sys.APs()[0], sys.APs()[6] // different rings
	sys.JoinMemberAt(ids.GUID(3), src)
	sys.Run()
	sys.HandoffMember(ids.GUID(3), dst)
	sys.Run()
	members := sys.GlobalMembership()
	if len(members) != 1 || members[0].AP != dst {
		t.Fatalf("after handoff: %v", members)
	}
	// Old AP no longer serves it; new AP does.
	if sys.Node(src).LocalMembers().Contains(3) {
		t.Error("old AP still lists the member locally")
	}
	if !sys.Node(dst).LocalMembers().Contains(3) {
		t.Error("new AP does not list the member locally")
	}
	// LUID changed to the new AP's scope.
	m, _ := sys.Member(ids.GUID(3))
	if m.LUID.AP != dst {
		t.Errorf("LUID not reassigned: %s", m.LUID)
	}
}

func TestHandoffWithinRingKeepsRingList(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	apNode := sys.Node(sys.APs()[0])
	src := apNode.ID()
	dst := apNode.Roster()[2] // same ring
	sys.JoinMemberAt(ids.GUID(8), src)
	sys.Run()
	sys.HandoffMember(ids.GUID(8), dst)
	sys.Run()
	for _, id := range apNode.Roster() {
		n := sys.Node(id)
		m, ok := n.RingMembers().Get(8)
		if !ok || m.AP != dst {
			t.Fatalf("node %s ring list stale after intra-ring handoff: %v (ok=%v)", id, m, ok)
		}
	}
}

func TestFastHandoffNeighborHit(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	apNode := sys.Node(sys.APs()[0])
	src := apNode.ID()
	neighbor := apNode.Roster()[1] // ring successor = coverage neighbor
	far := sys.APs()[13]           // different ring entirely
	sys.JoinMemberAt(ids.GUID(2), src)
	sys.Run()
	if !sys.FastHandoffHit(ids.GUID(2), neighbor) {
		t.Error("neighbor AP should hit its ListOfNeighborMembers")
	}
	if sys.FastHandoffHit(ids.GUID(2), far) {
		t.Error("distant AP must not hit")
	}
	// Ablation: with neighbor lists disabled there is never a hit.
	cfg := quietConfig(2, 5)
	cfg.NeighborLists = false
	sys2 := NewSystem(cfg)
	ap2 := sys2.Node(sys2.APs()[0])
	sys2.JoinMemberAt(ids.GUID(2), ap2.ID())
	sys2.Run()
	if sys2.FastHandoffHit(ids.GUID(2), ap2.Roster()[1]) {
		t.Error("hit reported with neighbor lists disabled")
	}
}

func TestAggregationReducesCarriedOps(t *testing.T) {
	run := func(aggregate bool) uint64 {
		cfg := quietConfig(2, 5)
		cfg.Aggregate = aggregate
		sys := NewSystem(cfg)
		ap := sys.APs()[0]
		// A burst: one member churns join/leave 10 times back to back
		// before the network can serve the first round.
		for i := 0; i < 10; i++ {
			sys.JoinMemberAt(ids.GUID(50), ap)
			sys.LeaveMember(ids.GUID(50))
		}
		sys.Run()
		return sys.OpsCarried()
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("aggregation should reduce carried ops: with=%d without=%d", with, without)
	}
	if without < 20 {
		t.Errorf("unaggregated burst should carry all 20 ops through the bottom ring, got %d", without)
	}
}

func TestMemberAcksArrive(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	m, err := sys.JoinMemberAt(ids.GUID(11), sys.APs()[0])
	if err != nil {
		t.Fatalf("JoinMemberAt: %v", err)
	}
	sys.Run()
	if m.Acks() == 0 {
		t.Fatal("member never received a Holder-Acknowledgement")
	}
	if m.ackedAt == 0 {
		t.Fatal("ack timestamp missing")
	}
}

func TestRingMembersConsistencyAcrossRing(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	for g := 1; g <= 20; g++ {
		sys.JoinMember(ids.GUID(g))
	}
	sys.Run()
	// Every ring: all members agree on ListOfRingMembers.
	for _, rg := range sys.Hierarchy().Rings() {
		var ref []ids.MemberInfo
		for _, id := range rg.Nodes() {
			got := sys.Node(id).RingMembers().Snapshot()
			if ref == nil {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("ring %s: member-list divergence (%d vs %d)", rg.ID(), len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("ring %s: member-list order divergence", rg.ID())
				}
			}
		}
	}
	// Top ring covers everything.
	if got := len(sys.GlobalMembership()); got != 20 {
		t.Fatalf("global membership = %d, want 20", got)
	}
}

func TestManyMembersManyEvents(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	aps := sys.APs()
	for g := 1; g <= 60; g++ {
		sys.JoinMemberAt(ids.GUID(g), aps[g%len(aps)])
	}
	sys.Run()
	for g := 1; g <= 60; g += 3 {
		sys.LeaveMember(ids.GUID(g))
	}
	sys.Run()
	for g := 2; g <= 60; g += 3 {
		sys.HandoffMember(ids.GUID(g), aps[(g*7)%len(aps)])
	}
	sys.Run()
	want := 40 // 60 - 20 leaves
	if got := len(sys.GlobalMembership()); got != want {
		t.Fatalf("global membership = %d, want %d", got, want)
	}
	// Location correctness for the handoff cohort.
	truth := map[ids.GUID]ids.NodeID{}
	for g := 2; g <= 60; g += 3 {
		truth[ids.GUID(g)] = aps[(g*7)%len(aps)]
	}
	for _, m := range sys.GlobalMembership() {
		if want, ok := truth[m.GUID]; ok && m.AP != want {
			t.Errorf("%s at %s, want %s", m.GUID, m.AP, want)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		sys := NewSystem(quietConfig(3, 5))
		for g := 1; g <= 30; g++ {
			sys.JoinMember(ids.GUID(g))
		}
		sys.Run()
		st := sys.Transport().Stats()
		return st.Delivered, sys.Rounds()
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", d1, r1, d2, r2)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid config")
		}
	}()
	NewSystem(Config{H: 0, R: 1})
}

func TestJoinRejectsUpperTier(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	top := sys.Hierarchy().Level(0)[0].Nodes()[0]
	if _, err := sys.JoinMemberAt(ids.GUID(1), top); !errors.Is(err, ErrNotAccessProxy) {
		t.Fatalf("err = %v, want ErrNotAccessProxy", err)
	}
}
