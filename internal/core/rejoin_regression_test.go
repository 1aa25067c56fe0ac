package core

import (
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
)

// TestFailoverRejoinConvergence mirrors examples/failover with default
// (jittered) latency and heartbeats: crash a non-leader, then the
// leader, restore both, and require every ring to converge on one
// roster. Regression test for stale-rejoin divergence.
func TestFailoverRejoinConvergence(t *testing.T) {
	cfg := DefaultConfig(2, 6)
	cfg.HeartbeatInterval = 2 * time.Second
	sys := NewSystem(cfg)
	aps := sys.APs()
	for g := 1; g <= 12; g++ {
		sys.JoinMemberAt(ids.GUID(g), aps[(g*5)%len(aps)])
	}
	sys.RunFor(5 * time.Second)
	ring0 := sys.Node(aps[0]).Roster()
	victim := ring0[3]
	sys.CrashNE(victim)
	sys.RunFor(10 * time.Second)
	leader := sys.Node(aps[0]).Leader()
	sys.CrashNE(leader)
	sys.RunFor(10 * time.Second)
	sys.RestoreNE(victim)
	sys.RestoreNE(leader)
	sys.RunFor(15 * time.Second)
	if d := sys.RosterAgreement(); d != 0 {
		for _, rg := range sys.Hierarchy().Rings() {
			for _, m := range rg.Nodes() {
				n := sys.Node(m)
				t.Logf("ring %s node %s crashed=%v stale=%v leader=%s roster=%v",
					rg.ID(), m, sys.Transport().Crashed(m), sys.neStale(m), n.Leader(), n.Roster())
			}
		}
		t.Fatalf("disagreements: %d", d)
	}
}

// TestRestoredEntityForgetsDepartedMembers: a snapshot refreshes every
// list of the entity it restores, not ListOfRingMembers alone. A member
// that left while a (non-leader) access proxy was down used to stay in
// that proxy's neighbour and full lists — and kept counting as a
// fast-handoff hit there — for good.
func TestRestoredEntityForgetsDepartedMembers(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	aps := sys.APs()
	down, other := aps[1], aps[2]
	sys.JoinMemberAt(1, other)
	sys.JoinMemberAt(2, down)
	sys.JoinMemberAt(3, aps[4]) // another ring's member: the snapshot says nothing about it
	sys.Run()
	n := sys.Node(down)
	if !n.NeighborMembers().Contains(1) || !n.GlobalMembers().Contains(1) || !sys.FastHandoffHit(1, down) {
		t.Fatalf("before the crash %s should know member 1 of its neighbour %s", down, other)
	}
	sys.CrashNE(down)
	if err := sys.LeaveMember(1); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(10 * time.Second)
	sys.RestoreNE(down)
	sys.RunFor(10 * time.Second)
	if !n.rosterContains(down) || sys.neStale(down) || n.RingMembers().Contains(1) {
		t.Fatalf("%s did not rejoin cleanly: roster %v stale %v ring list %s", down, n.Roster(), sys.neStale(down), n.RingMembers())
	}
	if n.NeighborMembers().Contains(1) || n.GlobalMembers().Contains(1) || sys.FastHandoffHit(1, down) {
		t.Errorf("member 1 left while %s was down, yet after the restore: neighbours %s, global %s, fast-handoff hit %v",
			down, n.NeighborMembers(), n.GlobalMembers(), sys.FastHandoffHit(1, down))
	}
	if !n.LocalMembers().Contains(2) || !n.RingMembers().Contains(2) || !n.GlobalMembers().Contains(2) {
		t.Errorf("member 2 is still attached at %s: local %s, ring %s, global %s", down, n.LocalMembers(), n.RingMembers(), n.GlobalMembers())
	}
	if !n.GlobalMembers().Contains(3) {
		t.Errorf("member 3 sits under another ring, the snapshot cannot have removed it: global %s", n.GlobalMembers())
	}
}
