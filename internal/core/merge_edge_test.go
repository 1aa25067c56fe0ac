package core

import (
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/wire"
)

// cutConfig is quietConfig with the heartbeat PartitionNetwork needs.
func cutConfig(h, r int) Config {
	cfg := quietConfig(h, r)
	cfg.HeartbeatInterval = 250 * time.Millisecond
	return cfg
}

// splitByCut splits a six-entity ring through the protocol alone. It
// cuts the last three entities of roster away at the transport, joins
// member near on the first side and far on the second, so that each
// side's round excludes the other through its pass timeouts, drains,
// and lifts the cut. The heartbeats stop at the cut, so nothing probes
// afterwards and the test delivers the MergeRequest itself. Returns the
// kept (near) and the split (far) fragment's leaders.
func splitByCut(t *testing.T, sys *System, roster []ids.NodeID, near, far ids.GUID) (kept, split ids.NodeID) {
	t.Helper()
	frag := roster[3:]
	if err := sys.PartitionNetwork(frag); err != nil {
		t.Fatal(err)
	}
	sys.StopHeartbeats()
	if _, err := sys.JoinMemberAt(near, roster[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.JoinMemberAt(far, roster[4]); err != nil {
		t.Fatal(err)
	}
	sys.rt.Run()
	if err := sys.HealNetwork(); err != nil {
		t.Fatal(err)
	}
	return sys.Node(roster[0]).Leader(), sys.Node(roster[4]).Leader()
}

// sendMergeRequest sends to the MergeRequest that fragment leader from
// answers a probe with (Node.receiveProbe).
func sendMergeRequest(sys *System, from, to ids.NodeID) {
	fl := sys.Node(from)
	sys.send(from, to, runtime.KindControl, wire.MergeRequest{
		Roster:     fl.Roster(),
		Members:    fl.ringMems.Snapshot(),
		Tombstones: fl.tombstoneList(),
	})
}

// TestMergeRequestToCrashedLeaderFragment: the kept fragment's leader
// crashes before the fragments merge, and the MergeRequest lands on a
// surviving non-leader. The receiver must apply the deterministic
// leader repair first (electing the successor) and still complete the
// merge — either by becoming leader itself or forwarding to the
// repaired one.
func TestMergeRequestToCrashedLeaderFragment(t *testing.T) {
	sys := NewSystem(cutConfig(2, 6))
	roster := sys.Node(sys.APs()[0]).Roster()

	sys.JoinMemberAt(ids.GUID(1), roster[0])
	sys.JoinMemberAt(ids.GUID(2), roster[4])
	sys.Run()

	keptLeader, splitLeader := splitByCut(t, sys, roster, 3, 4)

	// The kept leader dies; with the heartbeats stopped nothing has
	// detected it when the merge request arrives at a surviving kept
	// member.
	survivor := sys.Node(keptLeader).Roster()[1]
	sys.CrashNE(keptLeader)
	sendMergeRequest(sys, splitLeader, survivor)
	sys.Run()

	// The merge completed over the repaired fragment: every survivor
	// holds the 5-node merged roster (6 minus the crashed old leader)
	// and agrees on it.
	for _, id := range roster {
		if id == keptLeader {
			continue
		}
		n := sys.Node(id)
		if got := len(n.Roster()); got != 5 {
			t.Errorf("node %s roster size after merge = %d, want 5", id, got)
		}
		if n.rosterContains(keptLeader) {
			t.Errorf("node %s still lists the crashed leader %s", id, keptLeader)
		}
	}
	if sys.RosterAgreement() != 0 {
		t.Error("rosters diverged after merge over a crashed leader")
	}
	// Membership survived the partition, crash and merge.
	sn := sys.Node(survivor)
	if !sn.RingMembers().Contains(1) || !sn.RingMembers().Contains(2) {
		t.Error("ring membership lost across crashed-leader merge")
	}
}

// TestMergeRequestReplayIsNoOp: a duplicated MergeRequest (the fault
// injector's replay, or a retransmitted control datagram) arriving
// after the fragment already merged must change nothing.
func TestMergeRequestReplayIsNoOp(t *testing.T) {
	sys := NewSystem(cutConfig(2, 6))
	roster := sys.Node(sys.APs()[0]).Roster()

	sys.JoinMemberAt(ids.GUID(1), roster[0])
	sys.Run()

	keptLeader, splitLeader := splitByCut(t, sys, roster, 3, 4)

	// Capture the exact request the fragment leader would send, then
	// deliver it twice.
	fl := sys.Node(splitLeader)
	req := wire.MergeRequest{Roster: fl.Roster(), Members: fl.ringMems.Snapshot()}
	sys.send(splitLeader, keptLeader, runtime.KindControl, req)
	sys.Run()

	want := sys.Node(keptLeader).Roster()
	if got := len(want); got != 6 {
		t.Fatalf("merged roster size = %d, want 6", got)
	}
	wantMembers := len(sys.GlobalMembership())
	wantRepairs := len(sys.Repairs())

	sys.send(splitLeader, keptLeader, runtime.KindControl, req) // replay
	sys.Run()

	if got := sys.Node(keptLeader).Roster(); !sameRoster(want, got) {
		t.Errorf("replay changed the roster: %v -> %v", want, got)
	}
	if got := len(sys.GlobalMembership()); got != wantMembers {
		t.Errorf("replay changed membership: %d -> %d", wantMembers, got)
	}
	if got := len(sys.Repairs()); got != wantRepairs {
		t.Errorf("replay triggered repairs: %d -> %d", wantRepairs, got)
	}
	if sys.RosterAgreement() != 0 {
		t.Error("rosters diverged after replayed merge request")
	}
}

// TestMergeRequestEmptyAndForeignIgnored: a MergeRequest with an empty
// roster (a fragment that lost everyone) and one whose roster belongs
// to a different ring (misrouted or corrupted) are both dropped
// without touching the receiver's state.
func TestMergeRequestEmptyAndForeignIgnored(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	apNode := sys.Node(sys.APs()[0])
	leader := apNode.Leader()
	want := sys.Node(leader).Roster()

	other := sys.Node(sys.APs()[5]) // a different AP ring entirely
	foreign := wire.MergeRequest{Roster: other.Roster()}

	sys.send(other.ID(), leader, runtime.KindControl, wire.MergeRequest{})
	sys.send(other.ID(), leader, runtime.KindControl, foreign)
	sys.Run()

	if got := sys.Node(leader).Roster(); !sameRoster(want, got) {
		t.Errorf("empty/foreign merge requests changed the roster: %v -> %v", want, got)
	}
	for _, id := range other.Roster() {
		if sys.Node(leader).rosterContains(id) {
			t.Errorf("foreign ring node %s folded into the roster", id)
		}
	}
	if sys.RosterAgreement() != 0 {
		t.Error("rosters diverged after ignored merge requests")
	}
}

// TestSnapshotTombstoneOutlivesStaleMerge: an entity that loads a
// Snapshot keeps the removals the snapshot carries, not only its member
// list. The leader of an access-proxy ring loads one saying member 2
// left, which it had missed; a ring-mate that also missed the leave
// then sends a MergeRequest still listing member 2 at its join. The
// merge must not bring member 2 back.
func TestSnapshotTombstoneOutlivesStaleMerge(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	leader := sys.Node(sys.Node(sys.APs()[0]).Leader())
	roster := leader.Roster()
	for g := ids.GUID(1); g <= 2; g++ {
		if _, err := sys.JoinMemberAt(g, roster[0]); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	peer := sys.Node(roster[1])
	if peer == leader {
		peer = sys.Node(roster[2])
	}
	stale := wire.MergeRequest{Roster: peer.Roster(), Members: peer.ringMems.Snapshot(), Tombstones: peer.tombstoneList()}
	if len(stale.Members) != 2 {
		t.Fatalf("the ring-mate lists %v, want members 1 and 2", stale.Members)
	}
	kept, _ := leader.ringMems.Get(1)
	sys.send(peer.ID(), leader.ID(), runtime.KindControl, wire.Snapshot{
		Roster:     roster,
		Leader:     leader.ID(),
		Members:    []ids.MemberInfo{kept},
		Tombstones: []wire.Tombstone{{GUID: 2, Ver: 2}},
	})
	sys.Run()
	if leader.ringMems.Contains(2) || !leader.ringMems.Contains(1) {
		t.Fatalf("after the snapshot the leader lists %v, want member 1 only", leader.ringMems.GUIDs())
	}
	sys.send(peer.ID(), leader.ID(), runtime.KindControl, stale)
	sys.Run()
	if leader.ringMems.Contains(2) {
		t.Fatalf("a stale MergeRequest brought back member 2, whose removal the snapshot carried: %v", leader.ringMems.GUIDs())
	}
}
