package core

import (
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
)

// TestProbeFromOwnLeaderExposesAsymmetricSplit guards receiveProbe's
// split detection on a real cut. Four Systems (h=2 r=4, heartbeats on)
// each host one top-ring entity and its subtree; slot 0 hosts the ring
// leader. Cutting slot 0 away is asymmetric: the isolated leader's token
// passes fail, so it repairs its ring down to a solo roster, while the
// other three, hearing nothing, still follow it. After the heal the solo
// ex-leader probes everyone it excluded. Since probes only ever target
// nodes the prober expelled, a probe arriving FROM a node this side
// still lists — its own leader, no less — proves the split: the receiver
// must expel that leader locally (electing the live successor) instead
// of ignoring the probe, so that the next probe exchange merges the two
// fragments. Ignoring it leaves the ring split until the silent-leader
// suspicion fires, five heartbeats after the last token.
func TestProbeFromOwnLeaderExposesAsymmetricSplit(t *testing.T) {
	const beat = 250 * time.Millisecond
	cfg := quietConfig(2, 4)
	cfg.HeartbeatInterval = beat
	// A retransmit timeout short beside the heartbeat: the isolated
	// leader repairs down to itself before the others' suspicion fires,
	// so at the heal they all still follow it.
	cfg.RetransmitTimeout = 25 * time.Millisecond
	p := newProcs(cfg, 4)
	for slot, s := range p.sys {
		if _, err := s.JoinMemberAt(ids.GUID(slot+1), p.apsOf(slot)[0]); err != nil {
			t.Fatal(err)
		}
	}
	// Half a beat past a heartbeat tick, so no token is in flight when
	// the cut goes in.
	p.rt.RunFor(2*time.Second + beat/2)

	top := p.sys[0].Hierarchy().Level(0)[0].Nodes()
	topNode := func(slot int) *Node { return p.sys[slot].Node(top[slot]) }
	if ld := topNode(0); !ld.isLeader() || len(ld.roster) != len(top) {
		t.Fatalf("setup: slot 0 roster=%v leader=%s", ld.roster, ld.leader)
	}

	clock := p.sys[0].Clock()
	p.cut(0)
	cutAt := clock.Now()
	for len(topNode(0).roster) > 1 {
		if clock.Now().Sub(cutAt) > 5*time.Second {
			t.Fatalf("isolated leader never repaired down to itself: %v", topNode(0).roster)
		}
		p.rt.RunFor(10 * time.Millisecond)
	}
	for slot := 1; slot < len(p.sys); slot++ {
		if n := topNode(slot); len(n.roster) != len(top) || n.leader != top[0] {
			t.Fatalf("setup: at the heal slot %d already has roster=%v leader=%s", slot, n.roster, n.leader)
		}
	}
	p.rt.Net().Heal()

	healed := clock.Now()
	united := func() bool {
		for slot, s := range p.sys {
			n := topNode(slot)
			if len(n.roster) != len(top) || n.leader != topNode(0).leader || s.RosterAgreement() != 0 {
				return false
			}
		}
		return true
	}
	// Two beats: the ex-leader's probes split the others off, and its
	// next ones reach a leader that merges.
	for !united() {
		if clock.Now().Sub(healed) > 2*beat {
			for slot := range p.sys {
				n := topNode(slot)
				t.Logf("slot %d: roster=%v leader=%s", slot, n.roster, n.leader)
			}
			t.Fatalf("top ring still split %v after the heal", clock.Now().Sub(healed))
		}
		p.rt.RunFor(10 * time.Millisecond)
	}
	for slot, s := range p.sys {
		if got := len(s.GlobalMembership()); got != len(p.sys) {
			t.Errorf("slot %d holds %d members after the reunion, want %d", slot, got, len(p.sys))
		}
	}
}
