package core

import (
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/wire"
)

// Quarantined reports whether the entity currently sits out a flap
// quarantine.
func (s *System) Quarantined(id ids.NodeID) bool {
	_, q := s.quarantineLeft(id)
	return q
}

// stableConfig returns a quiet configuration with the K-observer
// stability filter armed.
func stableConfig(h, r, k int) Config {
	cfg := quietConfig(h, r)
	cfg.StabilityK = k
	return cfg
}

// TestStabilityKMinusOneObserversNeverEvict: for any K, K-1 distinct
// observers — however often each re-observes — never confirm an
// eviction; the Kth distinct observer does, exactly once.
func TestStabilityKMinusOneObserversNeverEvict(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		sys := NewSystem(stableConfig(1, 5, k))
		subject := sys.APs()[0]
		observer := func(i int) ids.NodeID { return sys.Node(subject).Roster()[1+i] }

		for round := 0; round < 3; round++ { // re-observation is idempotent
			for i := 0; i < k-1; i++ {
				if sys.confirmEviction(subject, observer(i)) {
					t.Fatalf("K=%d: confirmed with %d distinct observers", k, i+1)
				}
			}
		}
		wantDeferred := uint64(3 * (k - 1))
		if got := sys.EvictionsDeferred(); got != wantDeferred {
			t.Errorf("K=%d: EvictionsDeferred = %d, want %d", k, got, wantDeferred)
		}
		if !sys.confirmEviction(subject, observer(k-1)) {
			t.Fatalf("K=%d: Kth distinct observer did not confirm", k)
		}
		if got := sys.flapScore[subject]; got != 1 {
			t.Errorf("K=%d: FlapScore after first eviction = %d, want 1", k, got)
		}
		if sys.Quarantined(subject) {
			t.Errorf("K=%d: first eviction must rejoin freely, got quarantine", k)
		}
		// The suspicion was consumed: confirming again starts over.
		if sys.confirmEviction(subject, observer(0)) {
			t.Errorf("K=%d: fresh suspicion confirmed with one observer", k)
		}
	}
}

// TestStabilitySuspicionWindowExpiry: a lone stale observation cannot
// combine with a fresh one — observers older than the suspicion
// window (five retransmit timeouts without heartbeats) are discarded
// before counting.
func TestStabilitySuspicionWindowExpiry(t *testing.T) {
	sys := NewSystem(stableConfig(1, 5, 2))
	subject := sys.APs()[0]
	roster := sys.Node(subject).Roster()

	if sys.confirmEviction(subject, roster[1]) {
		t.Fatal("confirmed with one observer")
	}
	sys.RunFor(sys.suspicionWindow() + time.Millisecond) // the suspicion goes stale
	if sys.confirmEviction(subject, roster[2]) {
		t.Fatal("a fresh observer combined with a stale one")
	}
	// Within the window the pair confirms.
	if !sys.confirmEviction(subject, roster[3]) {
		t.Fatal("two fresh observers did not confirm")
	}
}

// TestFlapQuarantineEscalation: the first confirmed eviction rejoins
// freely; repeat offenses quarantine with exponentially growing holds
// (from ten retransmit timeouts without heartbeats) that expire on
// their own.
func TestFlapQuarantineEscalation(t *testing.T) {
	sys := NewSystem(stableConfig(1, 5, 2))
	subject := sys.APs()[0]
	roster := sys.Node(subject).Roster()
	evict := func() {
		t.Helper()
		sys.confirmEviction(subject, roster[1])
		if !sys.confirmEviction(subject, roster[2]) {
			t.Fatal("two observers did not confirm")
		}
	}

	evict() // score 1: free rejoin
	if sys.Quarantined(subject) {
		t.Fatal("quarantined on first eviction")
	}
	prev := time.Duration(0)
	for offense := 2; offense <= 4; offense++ {
		evict()
		left, held := sys.quarantineLeft(subject)
		if !held {
			t.Fatalf("offense %d: not quarantined", offense)
		}
		if left <= prev {
			t.Fatalf("offense %d: hold %s did not escalate beyond %s", offense, left, prev)
		}
		prev = left
		sys.RunFor(left + time.Millisecond) // serve it out
		if sys.Quarantined(subject) {
			t.Fatalf("offense %d: quarantine did not expire", offense)
		}
	}
	if got := sys.FlapQuarantines(); got != 3 {
		t.Errorf("FlapQuarantines = %d, want 3", got)
	}
}

// TestUnconfirmedSuspicionKeepsRosterIntact: with the filter armed and
// only one observer available (a crashed non-leader seen by its token
// predecessor), the entity is never excluded — but the protocol stays
// live: the round routes around the suspect and the membership change
// still commits everywhere.
func TestUnconfirmedSuspicionKeepsRosterIntact(t *testing.T) {
	sys := NewSystem(stableConfig(1, 5, 3))
	ap := sys.APs()[0]
	roster := sys.Node(ap).Roster()
	dead := roster[2]
	sys.CrashNE(dead)

	sys.JoinMemberAt(ids.GUID(1), ap)
	sys.Run()

	if got := len(sys.GlobalMembership()); got != 1 {
		t.Fatalf("membership = %d, want 1 (round wedged on unconfirmed suspect?)", got)
	}
	if sys.EvictionsDeferred() == 0 {
		t.Error("no eviction was deferred")
	}
	if len(sys.Repairs()) != 0 {
		t.Errorf("repairs = %v, want none below K observers", sys.Repairs())
	}
	for _, id := range roster {
		if id == dead {
			continue
		}
		if !sys.Node(id).rosterContains(dead) {
			t.Errorf("node %s excluded %s with fewer than K observers", id, dead)
		}
	}
}

// TestQuarantinedRejoinDeferredNotDropped: a quarantined entity's
// NE-Join is held until the quarantine expires and then completes; a
// duplicate request delivered during the hold is requeued too and its
// late replay is a no-op (no double admission, no divergence).
func TestQuarantinedRejoinDeferredNotDropped(t *testing.T) {
	sys := NewSystem(stableConfig(1, 5, 2))
	ap := sys.APs()[0]
	roster := sys.Node(ap).Roster()
	flapper := roster[3]

	sys.JoinMemberAt(ids.GUID(1), ap)
	sys.Run()

	// Evict the flapper for real (crash + two concurring observers do
	// the roster surgery the confirmed path performs), twice over so
	// the rejoin quarantine is armed.
	sys.CrashNE(flapper)
	sys.confirmEviction(flapper, roster[0])
	if !sys.confirmEviction(flapper, roster[1]) {
		t.Fatal("eviction not confirmed")
	}
	sys.noteFlap(flapper, sys.Clock().Now()) // repeat offense: quarantine armed
	for _, id := range roster {
		if id != flapper {
			sys.Node(id).excludeFromRoster(flapper)
		}
	}
	sys.Run()
	if !sys.Quarantined(flapper) {
		t.Fatal("flapper not quarantined")
	}

	// The restored flapper asks to rejoin — twice (a retransmitted
	// control datagram). Both land inside the hold.
	sys.RestoreNE(flapper)
	leader := sys.Node(sys.Node(ap).Leader())
	sys.RunFor(10 * time.Millisecond)
	leader.receiveJoinRequest(wire.JoinRequest{Node: flapper}) // duplicate
	sys.RunFor(10 * time.Millisecond)
	for _, id := range roster {
		if id != flapper && sys.Node(id).rosterContains(flapper) {
			t.Fatalf("node %s readmitted %s during quarantine", id, flapper)
		}
	}

	// Past the hold both deferred requests fire; the second is a
	// replay no-op.
	sys.RunFor(sys.quarantineBase() + 500*time.Millisecond)
	for _, id := range roster {
		n := sys.Node(id)
		if !n.rosterContains(flapper) {
			t.Errorf("node %s never readmitted %s after quarantine", id, flapper)
		}
		if got := len(n.Roster()); got != 5 {
			t.Errorf("node %s roster size = %d, want 5 (duplicate admission?)", id, got)
		}
	}
	if sys.RosterAgreement() != 0 {
		t.Error("rosters diverged after deferred rejoin")
	}
}

// TestSilentLeaderEvictionNeedsConfirmation: with the filter armed,
// the heartbeat watchdog's first silent-leader verdict is deferred;
// the eviction proceeds once a second detector (the token predecessor
// whose pass to the dead leader timed out) concurs, and the ring ends
// up functional under a new leader.
func TestSilentLeaderEvictionNeedsConfirmation(t *testing.T) {
	cfg := stableConfig(1, 5, 2)
	cfg.HeartbeatInterval = 50 * time.Millisecond
	sys := NewSystem(cfg)
	leader := sys.Node(sys.APs()[0]).Leader()
	var ap ids.NodeID
	for _, cand := range sys.APs() {
		if cand != leader {
			ap = cand
			break
		}
	}

	sys.CrashNE(leader)
	sys.JoinMemberAt(ids.GUID(1), ap) // forces a round: the pass to the dead leader times out
	sys.RunFor(3 * time.Second)
	sys.StopHeartbeats()
	sys.Run()

	if got := len(sys.GlobalMembership()); got != 1 {
		t.Fatalf("membership = %d, want 1", got)
	}
	acting := sys.Node(sys.Node(ap).Leader())
	if acting.ID() == leader {
		t.Fatal("dead leader still believed leader")
	}
	if acting.rosterContains(leader) {
		t.Error("confirmed dead leader was never excluded")
	}
	if got := sys.flapScore[leader]; got != 1 {
		t.Errorf("FlapScore(dead leader) = %d, want 1", got)
	}
}
