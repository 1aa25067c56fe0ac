package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
)

// TestCrashNonLeaderRepair: a crashed ring member is detected by token
// retransmission and excluded; the membership change still completes.
func TestCrashNonLeaderRepair(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	apNode := sys.Node(sys.APs()[0])
	victim := apNode.Roster()[2]
	sys.CrashNE(victim)
	sys.JoinMemberAt(ids.GUID(1), apNode.ID())
	sys.Run()
	// The join propagated despite the crash.
	if got := len(sys.GlobalMembership()); got != 1 {
		t.Fatalf("membership = %d, want 1", got)
	}
	// The repair happened and every live ring member dropped the victim.
	if len(sys.Repairs()) == 0 {
		t.Fatal("no repair recorded")
	}
	for _, id := range apNode.Roster() {
		if id == victim {
			t.Fatal("victim still in detector's roster")
		}
	}
	for _, id := range apNode.Roster() {
		n := sys.Node(id)
		if n.rosterContains(victim) {
			t.Errorf("node %s still lists crashed %s", id, victim)
		}
	}
	if sys.RosterAgreement() != 0 {
		t.Error("rosters diverged after repair")
	}
}

// TestCrashLeaderFailover: crashing the ring leader elects its
// successor deterministically at every member, and the parent learns
// the new leader.
func TestCrashLeaderFailover(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	apNode := sys.Node(sys.APs()[1])
	leader := apNode.Leader()
	successorWant := sys.Node(leader).Roster()[1]
	sys.CrashNE(leader)
	// Traffic from a surviving node triggers detection.
	survivor := apNode.ID()
	if survivor == leader {
		survivor = successorWant
	}
	sys.JoinMemberAt(ids.GUID(2), survivor)
	sys.Run()
	if got := len(sys.GlobalMembership()); got != 1 {
		t.Fatalf("membership = %d, want 1", got)
	}
	for _, id := range sys.Node(survivor).Roster() {
		n := sys.Node(id)
		if n.Leader() != successorWant {
			t.Errorf("node %s leader = %s, want %s", id, n.Leader(), successorWant)
		}
	}
	// Parent's Child pointer repaired to the new leader.
	parent := sys.Node(survivor).Parent()
	if got := sys.Node(parent).childLeader; got != successorWant {
		t.Errorf("parent child pointer = %s, want %s", got, successorWant)
	}
	if sys.RosterAgreement() != 0 {
		t.Error("rosters diverged after leader failover")
	}
}

// TestHeartbeatDetectsFailureWithoutTraffic: with heartbeats on, a
// crash is detected and repaired with no membership traffic at all.
func TestHeartbeatDetectsFailureWithoutTraffic(t *testing.T) {
	cfg := quietConfig(2, 4)
	cfg.HeartbeatInterval = time.Second
	sys := NewSystem(cfg)
	apNode := sys.Node(sys.APs()[0])
	victim := apNode.Roster()[2]
	sys.CrashNE(victim)
	sys.RunFor(5 * time.Second)
	found := false
	for _, rep := range sys.Repairs() {
		if rep.Dead == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("heartbeat rounds did not detect the crash")
	}
	sys.StopHeartbeats()
}

// TestRestoreNERejoins: a restored entity is re-admitted through the
// NE-Join protocol and ends up back in every roster.
func TestRestoreNERejoins(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	apNode := sys.Node(sys.APs()[0])
	victim := apNode.Roster()[3]
	sys.CrashNE(victim)
	sys.JoinMemberAt(ids.GUID(3), apNode.ID())
	sys.Run() // detection + repair
	sys.RestoreNE(victim)
	sys.Run() // rejoin
	for _, id := range apNode.Roster() {
		if !sys.Node(id).rosterContains(victim) {
			t.Errorf("node %s did not re-admit %s", id, victim)
		}
	}
	// The rejoined node received the ring state snapshot.
	if !sys.Node(victim).RingMembers().Contains(3) {
		t.Error("rejoined node missing ring membership snapshot")
	}
	if sys.RosterAgreement() != 0 {
		t.Error("rosters diverged after rejoin")
	}
}

// TestTwoCrashesSameRing: the implementation's full-roster repair
// survives two faults in one ring (stronger than the paper's 2-fault
// partition model, which the reliability package models instead).
func TestTwoCrashesSameRing(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	apNode := sys.Node(sys.APs()[0])
	sys.CrashNE(apNode.Roster()[2])
	sys.CrashNE(apNode.Roster()[3])
	sys.JoinMemberAt(ids.GUID(4), apNode.ID())
	sys.Run()
	if got := len(sys.GlobalMembership()); got != 1 {
		t.Fatalf("membership = %d, want 1", got)
	}
	if got := len(sys.Repairs()); got != 2 {
		t.Fatalf("repairs = %d, want 2", got)
	}
	if got := len(apNode.Roster()); got != 3 {
		t.Fatalf("roster size = %d, want 3", got)
	}
}

// TestCrashUpperTierNode: a crashed AG is routed around when a change
// climbs the hierarchy.
func TestCrashUpperTierNode(t *testing.T) {
	sys := NewSystem(quietConfig(3, 4))
	ap := sys.APs()[0]
	// The AG parent of the origin's ring.
	agParent := sys.Node(ap).Parent()
	agRing := sys.Node(agParent).Roster()
	// Crash a different AG in the same ring (not the parent itself, so
	// the notify still lands).
	victim := agRing[2]
	if victim == agParent {
		victim = agRing[1]
	}
	sys.CrashNE(victim)
	sys.JoinMemberAt(ids.GUID(5), ap)
	sys.Run()
	if got := len(sys.GlobalMembership()); got != 1 {
		t.Fatalf("membership = %d, want 1", got)
	}
	if !sys.Node(agParent).rosterContains(victim) {
		// repaired
	} else {
		t.Error("AG ring did not exclude the crashed node")
	}
}

// TestPartitionAndMerge exercises the §6 future-work extension: a
// transport cut that the ring's own rounds split into two fragments,
// followed by Membership-Merge.
func TestPartitionAndMerge(t *testing.T) {
	sys := NewSystem(cutConfig(2, 6))
	roster := sys.Node(sys.APs()[0]).Roster()

	// Populate some members first.
	sys.JoinMemberAt(ids.GUID(1), roster[0])
	sys.JoinMemberAt(ids.GUID(2), roster[4])
	sys.Run()

	keptLeader, splitLeader := splitByCut(t, sys, roster, 3, 4)
	if keptLeader == splitLeader {
		t.Fatal("fragments share a leader")
	}
	if got := len(sys.Node(keptLeader).Roster()); got != 3 {
		t.Fatalf("kept fragment size = %d, want 3", got)
	}
	if got := len(sys.Node(splitLeader).Roster()); got != 3 {
		t.Fatalf("split fragment size = %d, want 3", got)
	}
	// Merge back.
	sendMergeRequest(sys, splitLeader, keptLeader)
	sys.Run()
	for _, id := range roster {
		n := sys.Node(id)
		if got := len(n.Roster()); got != 6 {
			t.Errorf("node %s roster size after merge = %d, want 6", id, got)
		}
	}
	if sys.RosterAgreement() != 0 {
		t.Error("rosters diverged after merge")
	}
	// Membership survived the partition/merge cycle.
	kept := sys.Node(keptLeader)
	if !kept.RingMembers().Contains(1) || !kept.RingMembers().Contains(2) {
		t.Error("ring membership lost across partition/merge")
	}
}

// TestFunctionWellCensus tracks the protocol-level Function-Well
// bookkeeping through a crash-repair cycle.
func TestFunctionWellCensus(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	ok, total := sys.FunctionWellRings()
	if ok != total || total != sys.Hierarchy().NumRings() {
		t.Fatalf("initial census %d/%d", ok, total)
	}
	apNode := sys.Node(sys.APs()[0])
	sys.CrashNE(apNode.Roster()[2])
	sys.JoinMemberAt(ids.GUID(9), apNode.ID())
	sys.Run()
	// After repair the ring functions well again (survivors agree,
	// RingOK set by the convergence round).
	ok, total = sys.FunctionWellRings()
	if ok != total {
		t.Errorf("census after repair %d/%d", ok, total)
	}
}

// TestLossyNetworkStillConverges: with 2% message loss, token and
// notification retransmission still deliver the membership change.
func TestLossyNetworkStillConverges(t *testing.T) {
	cfg := quietConfig(2, 5)
	cfg.Loss = 0.02
	cfg.Seed = 77
	sys := NewSystem(cfg)
	for g := 1; g <= 10; g++ {
		sys.JoinMemberAt(ids.GUID(g), sys.APs()[g%25])
		sys.Run()
	}
	if got := len(sys.GlobalMembership()); got != 10 {
		t.Fatalf("membership under loss = %d, want 10", got)
	}
}

// TestNoFalseRepairsOnHealthyRing: on a loss-free network a
// retransmission timer never fires, so nothing is repaired and the
// timeout is invisible — the run delivers the same number of messages
// at the default RetransmitTimeout as at one no run ever reaches. (A
// pass timer nobody cancelled used to fire into a later pass as a
// spurious resend: 55 134 messages against 55 000 on seed 1.)
func TestNoFalseRepairsOnHealthyRing(t *testing.T) {
	type healthy struct {
		name  string
		cfg   Config
		joins int
	}
	cases := []healthy{{"constant latency", quietConfig(3, 5), 20}}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := DefaultConfig(3, 5)
		cfg.Seed = seed
		cases = append(cases, healthy{fmt.Sprintf("tier latency, seed %d", seed), cfg, 300})
	}
	for _, tc := range cases {
		delivered := func(rto time.Duration) uint64 {
			cfg := tc.cfg
			cfg.RetransmitTimeout = rto
			sys := NewSystem(cfg)
			for g := 1; g <= tc.joins; g++ {
				sys.JoinMember(ids.GUID(g))
			}
			sys.Run()
			if len(sys.Repairs()) != 0 {
				t.Errorf("%s, timeout %v: spurious repairs: %v", tc.name, rto, sys.Repairs())
			}
			if got := len(sys.GlobalMembership()); got != tc.joins {
				t.Errorf("%s, timeout %v: membership = %d, want %d", tc.name, rto, got, tc.joins)
			}
			return sys.Transport().Stats().Delivered
		}
		if def, never := delivered(tc.cfg.RetransmitTimeout), delivered(time.Hour); def != never {
			t.Errorf("%s: %d messages delivered at the default timeout, %d at 1h", tc.name, def, never)
		}
	}
}
