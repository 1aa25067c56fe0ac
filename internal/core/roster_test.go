package core

import (
	"slices"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
)

// TestRosterRepairRules pins the rules every entity applies to its own
// view of its ring (§4.2, §5.2): excludeFromRoster elects the
// excluded leader's successor, insertIntoRoster admits an entity right
// after the leader, and nextLive and prevLive walk the cycle.
func TestRosterRepairRules(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	apRing := sys.Hierarchy().Level(1)[0].Nodes()
	a0, a1, a2 := apRing[0], apRing[1], apRing[2]
	stranger := sys.Hierarchy().Level(1)[1].Nodes()[0]

	type op struct {
		insert bool
		id     ids.NodeID
	}
	cases := []struct {
		name       string
		viewer     ids.NodeID
		roster     []ids.NodeID
		leader     ids.NodeID
		ops        []op
		wantRoster []ids.NodeID
		wantLeader ids.NodeID
		wantNotify bool // viewer tells its parent it now leads
	}{
		{"exclude non-leader keeps the leader", a0, []ids.NodeID{a0, a1, a2}, a0,
			[]op{{false, a1}}, []ids.NodeID{a0, a2}, a0, false},
		{"exclude leader elects its successor", a2, []ids.NodeID{a0, a1, a2}, a0,
			[]op{{false, a0}}, []ids.NodeID{a1, a2}, a1, false},
		{"exclude leader at the end wraps to the first", a1, []ids.NodeID{a1, a2, a0}, a0,
			[]op{{false, a0}}, []ids.NodeID{a1, a2}, a1, true},
		{"elected successor announces itself to the parent", a1, []ids.NodeID{a0, a1, a2}, a0,
			[]op{{false, a0}}, []ids.NodeID{a1, a2}, a1, true},
		{"exclude absent entity changes nothing", a0, []ids.NodeID{a0, a1, a2}, a0,
			[]op{{false, stranger}}, []ids.NodeID{a0, a1, a2}, a0, false},
		{"exclude last entity of a one-entity roster changes nothing", a0, []ids.NodeID{a0}, a0,
			[]op{{false, a0}}, []ids.NodeID{a0}, a0, false},
		{"insert lands right after the leader", a0, []ids.NodeID{a0, a2}, a0,
			[]op{{true, a1}}, []ids.NodeID{a0, a1, a2}, a0, false},
		{"insert after a leader in the middle", a0, []ids.NodeID{a0, a2}, a2,
			[]op{{true, a1}}, []ids.NodeID{a0, a2, a1}, a2, false},
		{"insert is idempotent", a0, []ids.NodeID{a0, a2}, a0,
			[]op{{true, a1}, {true, a1}}, []ids.NodeID{a0, a1, a2}, a0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := sys.Node(tc.viewer)
			n.roster, n.leader = slices.Clone(tc.roster), tc.leader
			before := len(n.notifyWait)
			for _, o := range tc.ops {
				if o.insert {
					n.insertIntoRoster(o.id)
				} else {
					n.excludeFromRoster(o.id)
				}
			}
			if !slices.Equal(n.roster, tc.wantRoster) || n.leader != tc.wantLeader {
				t.Errorf("roster %v led by %s, want %v led by %s", n.roster, n.leader, tc.wantRoster, tc.wantLeader)
			}
			sent := n.notifyWait[before:]
			if !tc.wantNotify {
				if len(sent) != 0 {
					t.Errorf("sent %d notifications, want none", len(sent))
				}
				return
			}
			if len(sent) != 1 {
				t.Fatalf("sent %d notifications, want one LeaderUpdate", len(sent))
			}
			m := sent[0].msg
			if sent[0].to != n.parent || !m.Up || !m.LeaderUpdate || m.NewLeader != n.id {
				t.Errorf("sent %+v to %s, want a LeaderUpdate naming %s to parent %s", m, sent[0].to, n.id, n.parent)
			}
		})
	}
	t.Run("next and prev walk the cycle", func(t *testing.T) {
		n := sys.Node(a0)
		n.roster, n.leader = []ids.NodeID{a0, a1, a2, stranger}, a0
		for i, m := range n.roster {
			if got, want := n.nextLive(m), n.roster[(i+1)%4]; got != want {
				t.Errorf("nextLive(%s) = %s, want %s", m, got, want)
			}
			if got, want := n.prevLive(m), n.roster[(i+3)%4]; got != want {
				t.Errorf("prevLive(%s) = %s, want %s", m, got, want)
			}
		}
		n.roster = []ids.NodeID{a0}
		if n.nextLive(a0) != a0 || n.prevLive(a0) != a0 {
			t.Error("a one-entity roster should self-loop")
		}
	})
	t.Run("random ops", func(t *testing.T) { rosterRandomOps(t, sys) })
}

// rosterRandomOps drives one entity's roster through seeded random
// exclusions and insertions. After every step the roster holds the
// leader, and nextLive walks from the leader through every entity once
// and back, with prevLive undoing each step.
func rosterRandomOps(t *testing.T, sys *System) {
	top := sys.Hierarchy().Level(0)[0].Nodes()
	n := sys.Node(top[0]) // topmost: a new leader has no parent to notify
	for seed := uint64(1); seed <= 60; seed++ {
		rng := mathx.NewRNG(seed)
		n.roster, n.leader = slices.Clone(top), top[0]
		fresh := 1000
		for step := 0; step < 40; step++ {
			if rng.Intn(3) < 2 { // biased so rosters grow
				n.insertIntoRoster(ids.MakeNodeID(ids.TierBR, fresh))
				fresh++
			} else {
				n.excludeFromRoster(n.roster[rng.Intn(len(n.roster))])
			}
			if !slices.Contains(n.roster, n.leader) {
				t.Fatalf("seed %d step %d: leader %s not in %v", seed, step, n.leader, n.roster)
			}
			seen := make(map[ids.NodeID]bool, len(n.roster))
			cur := n.leader
			for range n.roster {
				if seen[cur] {
					t.Fatalf("seed %d step %d: %s visited twice in %v", seed, step, cur, n.roster)
				}
				seen[cur] = true
				next := n.nextLive(cur)
				if prev := n.prevLive(next); prev != cur {
					t.Fatalf("seed %d step %d: prevLive(%s) = %s, want %s in %v", seed, step, next, prev, cur, n.roster)
				}
				cur = next
			}
			if cur != n.leader || len(seen) != len(n.roster) {
				t.Fatalf("seed %d step %d: walk from %s ended at %s after %d of %v", seed, step, n.leader, cur, len(seen), n.roster)
			}
		}
	}
}
