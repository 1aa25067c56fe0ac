package core

import (
	"slices"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/wire"
)

// K-observer stability filter (Rapid's "stable failure detection",
// see PAPERS.md): with Config.StabilityK >= 2, a network entity is
// evicted from its ring only once K distinct observers concur within
// the suspicion window. The observers are the protocol's independent
// failure detectors:
//
//   - a ring member whose token pass to the suspect exhausted its
//     retransmission budget (passTimedOut),
//   - a fragment member whose believed leader fell silent past the
//     heartbeat window (suspectSilentLeader).
//
// The networked runtime's discovery plane (FailOutRemote) is not an
// observer but a verdict: its process-death determination confirms the
// eviction on its own (confirmEvictionDecisive).
//
// An unconfirmed suspicion never wedges the protocol: the token still
// routes around the suspect for the rest of its round, only the
// roster surgery (and the NE-Failure dissemination) waits for
// confirmation. A member evicted and readmitted repeatedly — a
// flapping link, a crash-looping process — accumulates a flap score
// that escalates to exponentially longer rejoin quarantine instead of
// churning the ring with evict/rejoin rounds.

// suspicion accumulates the distinct observers of one suspect.
type suspicion struct {
	firstAt   runtime.Time
	observers []ids.NodeID
}

// stabilityOn reports whether the filter is armed. K <= 1 means every
// suspicion confirms immediately — the pre-filter protocol, and the
// compat mode the golden digests pin.
func (s *System) stabilityOn() bool { return s.cfg.StabilityK >= 2 }

// detectionPeriod is the failure-detection beat: the heartbeat
// interval, or without heartbeats the retransmission timeout.
func (s *System) detectionPeriod() time.Duration {
	if s.cfg.HeartbeatInterval > 0 {
		return s.cfg.HeartbeatInterval
	}
	return s.cfg.RetransmitTimeout
}

// suspicionWindow is how long gathered observers of one suspect stay
// valid: five detection periods (the silent-leader horizon).
func (s *System) suspicionWindow() time.Duration { return 5 * s.detectionPeriod() }

// quarantineBase is the flap quarantine's unit: ten detection periods.
func (s *System) quarantineBase() time.Duration { return 10 * s.detectionPeriod() }

// confirmEviction records one observer's verdict against subject and
// reports whether the eviction may proceed. Observers older than the
// suspicion window are discarded first, so a stale lone suspicion
// from minutes ago cannot combine with a fresh one. Re-observation by
// the same observer is idempotent.
func (s *System) confirmEviction(subject, observer ids.NodeID) bool {
	if !s.stabilityOn() {
		return true
	}
	now := s.clock.Now()
	sp := s.suspects[subject]
	if sp == nil {
		sp = &suspicion{firstAt: now}
		s.suspects[subject] = sp
	} else if now.Sub(sp.firstAt) > s.suspicionWindow() {
		sp.firstAt = now
		sp.observers = sp.observers[:0]
	}
	if !slices.Contains(sp.observers, observer) {
		sp.observers = append(sp.observers, observer)
	}
	if len(sp.observers) < s.cfg.StabilityK {
		s.evictionsDeferred++
		return false
	}
	delete(s.suspects, subject)
	s.noteFlap(subject, now)
	return true
}

// confirmEvictionDecisive records a verdict that is conclusive on its
// own: the discovery plane's process-death determination, which fires
// only after the peer stayed silent through probing for the whole
// evict horizon (many heartbeat windows). The K-observer gate exists
// to stop one hair-trigger pass timeout from amputating a slow entity;
// it must not let the ring outvote a probed process death — in a
// two-process majority there is no second in-protocol observer (the
// token already routes around the suspect, so the predecessor never
// re-observes), and gating the discovery verdict would wedge the
// eviction forever. The flap score still advances, so a crash-looping
// process earns its rejoin quarantine the same way a confirmed
// in-protocol flapper does.
func (s *System) confirmEvictionDecisive(subject ids.NodeID) {
	if !s.stabilityOn() {
		return
	}
	delete(s.suspects, subject)
	s.noteFlap(subject, s.clock.Now())
}

// noteFlap bumps the subject's flap score on a confirmed eviction and
// arms the rejoin quarantine for repeat offenders: the first eviction
// rejoins freely, every one after holds the entity out for the base
// doubled per extra offense (capped at 64x).
func (s *System) noteFlap(subject ids.NodeID, now runtime.Time) {
	s.flapScore[subject]++
	score := s.flapScore[subject]
	if score < 2 {
		return
	}
	shift := score - 2
	if shift > 6 {
		shift = 6
	}
	s.quarantined[subject] = now.Add(s.quarantineBase() << shift)
	s.flapQuarantines++
}

// suspectCrashedLeader is the heartbeat plane's detector when the tick
// elected acting as a stand-in holder because the ring's believed
// leader stopped beating. Without it a same-process dead leader would
// collect only one observer forever (the fixed token predecessor whose
// pass times out — re-observation is idempotent), wedging K >= 2
// eviction even though every heartbeat confirms the silence. On
// confirmation the acting node performs the repair and disseminates
// the NE-Failure through its next round, exactly like the pass-timeout
// path. Only called with the filter armed, so compat traces are
// untouched.
func (s *System) suspectCrashedLeader(acting *Node) {
	dead := acting.leader
	if dead == acting.id || !acting.rosterContains(dead) || !s.tr.Crashed(dead) {
		return
	}
	if !s.confirmEviction(dead, acting.id) {
		return
	}
	s.noteRepair(acting.ringID, dead)
	acting.excludeFromRoster(dead)
	acting.queue.Insert(mq.Change{Op: mq.OpNEFailure, NE: dead, Origin: acting.id, Seq: acting.nextSeq()})
}

// quarantineLeft reports how long a rejoining entity must still wait
// out its flap quarantine (false when it may rejoin now). Expired
// holds are cleared on the way.
func (s *System) quarantineLeft(id ids.NodeID) (time.Duration, bool) {
	if len(s.quarantined) == 0 {
		return 0, false
	}
	until, ok := s.quarantined[id]
	if !ok {
		return 0, false
	}
	left := until.Sub(s.clock.Now())
	if left <= 0 {
		delete(s.quarantined, id)
		return 0, false
	}
	return left, true
}

// deferredJoin carries a quarantined entity's join request to its
// re-delivery timer without a closure.
type deferredJoin struct {
	n   *Node
	req wire.JoinRequest
}

func deferredJoinCB(a any) {
	d := a.(*deferredJoin)
	if d.n.sys.tr.Crashed(d.n.id) {
		return
	}
	d.n.receiveJoinRequest(d.req)
}

// deferJoin re-delivers a join request to the leader once the
// subject's quarantine expires — deferred, never dropped, so a rejoin
// always completes eventually.
func (s *System) deferJoin(n *Node, req wire.JoinRequest, after time.Duration) {
	s.clock.AfterCall(after, deferredJoinCB, &deferredJoin{n: n, req: req})
}

// FlapQuarantines returns how many times a repeat-flapping entity was
// placed under rejoin quarantine.
func (s *System) FlapQuarantines() uint64 { return s.flapQuarantines }

// EvictionsDeferred returns how many suspicions the stability filter
// held back awaiting more observers.
func (s *System) EvictionsDeferred() uint64 { return s.evictionsDeferred }

// FlapScore returns the accumulated flap score of an entity (0 when
// it never flapped or the filter is off).
func (s *System) FlapScore(id ids.NodeID) int { return s.flapScore[id] }

// Quarantined reports whether the entity currently sits out a flap
// quarantine.
func (s *System) Quarantined(id ids.NodeID) bool {
	_, q := s.quarantineLeft(id)
	return q
}
