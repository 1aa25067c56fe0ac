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
