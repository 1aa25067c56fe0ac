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

// TestRestoredUnexcludedLeaderRejoins: a ring leader restored before any
// round noticed its crash is still every ring-mate's leader. The
// ring-mate its JoinRequest reached used to forward it to that leader,
// whose stale state bounced it straight back, forever. The ring-mate now
// runs the repair nobody ran and admits the leader like any rejoiner —
// after its flap quarantine, if it is serving one.
func TestRestoredUnexcludedLeaderRejoins(t *testing.T) {
	for _, quarantined := range []bool{false, true} {
		cfg := DefaultConfig(2, 3)
		if quarantined {
			cfg.StabilityK = 2
		}
		sys := NewSystem(cfg)
		ap := sys.APs()[0]
		if l := sys.Node(ap).Leader(); l != ap {
			t.Fatalf("%s should lead its ring, %s does", ap, l)
		}
		if quarantined {
			sys.noteFlap(ap, sys.Clock().Now())
			sys.noteFlap(ap, sys.Clock().Now())
		}
		sys.CrashNE(ap)
		sys.RestoreNE(ap)
		sys.RunFor(10 * time.Second)
		if sent := sys.Transport().Stats().Sent; sent > 100 {
			t.Fatalf("quarantined=%v: the rejoin took %d messages: its JoinRequest is going round in circles", quarantined, sent)
		}
		if sys.neStale(ap) {
			t.Fatalf("quarantined=%v: %s never got its snapshot", quarantined, ap)
		}
		if d := sys.RosterAgreement(); d != 0 {
			for _, m := range sys.Hierarchy().RingOf(ap).Nodes() {
				t.Logf("%s leader=%s roster=%v", m, sys.Node(m).Leader(), sys.Node(m).Roster())
			}
			t.Fatalf("quarantined=%v: %d rings disagree after the rejoin", quarantined, d)
		}
		if _, err := sys.JoinMemberAt(1, ap); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if got := sys.GlobalMembership(); len(got) != 1 || got[0].GUID != 1 {
			t.Fatalf("quarantined=%v: a join at the rejoined %s did not commit: %v", quarantined, ap, got)
		}
	}
}

// TestRestoredEntityForgetsDepartedMembers: a snapshot refreshes every
// list of the entity it restores, not ListOfRingMembers alone. A member
// that left while a (non-leader) access proxy was down used to stay in
// that proxy's neighbour list — and kept counting as a fast-handoff hit
// there — for good.
func TestRestoredEntityForgetsDepartedMembers(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	aps := sys.APs()
	down, other := aps[1], aps[2]
	sys.JoinMemberAt(1, other)
	sys.JoinMemberAt(2, down)
	sys.JoinMemberAt(3, aps[4]) // another ring's member: the snapshot says nothing about it
	sys.Run()
	n := sys.Node(down)
	if !n.neighbors.Contains(1) || !n.RingMembers().Contains(1) || !sys.FastHandoffHit(1, down) {
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
	if n.neighbors.Contains(1) || sys.FastHandoffHit(1, down) {
		t.Errorf("member 1 left while %s was down, yet after the restore: neighbours %s, fast-handoff hit %v",
			down, &n.neighbors, sys.FastHandoffHit(1, down))
	}
	if !n.LocalMembers().Contains(2) || !n.RingMembers().Contains(2) {
		t.Errorf("member 2 is still attached at %s: local %s, ring %s", down, n.LocalMembers(), n.RingMembers())
	}
	// Member 3 sits under another ring: its ring still lists it, and so
	// does every other list that covers its access proxy.
	requireRingListsMatchCoverage(t, sys)
}
