package core

import (
	"fmt"
	"slices"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/wire"
)

// Node is one network entity (AP, AG or BR) of the ring-based
// hierarchy, holding exactly the per-entity state of Section 4.2: its
// ring's roster, the Function-Well booleans, the MQ and the three
// membership lists. No entity holds the whole group; the topmost ring's
// ListOfRingMembers is the group's view (§4.4).
type Node struct {
	sys *System

	id     ids.NodeID
	level  int     // ring level, 0 = topmost
	ringID ring.ID // the logical ring this entity belongs to
	ring   *ringState

	// roster is the node's view of its ring in cycle order (every
	// entity knows the full ring roster — required anyway to maintain
	// ListOfRingMembers). leader is the current ring leader.
	roster []ids.NodeID
	leader ids.NodeID

	// parent is the node in the level above that this ring reports to
	// (zero for the topmost ring); childLeader is the current leader
	// of this node's child ring (zero for bottommost nodes).
	parent      ids.NodeID
	childLeader ids.NodeID
	childRing   ring.ID
	hasChild    bool

	// owedUp and owedDown are what the links to the parent and to the
	// child ring's leader owe: the member changes of notifications that
	// ran out of retries, one per member (owe). The next round through
	// this node sends them along with its own notification (notify), so
	// a link is never marked down: Section 4.2's ParentOK and ChildOK
	// are not stored. Nor is Figure 3's RingOK: holding the token implies
	// it, and an entity that has lost its ring no longer lists itself in
	// roster.
	owedUp, owedDown mq.Batch

	// The membership lists of Section 4.2, embedded by value (the zero
	// MemberList is ready to use) so building a node costs no per-list
	// allocation.
	local     ids.MemberList // ListOfLocalMembers (bottommost tier)
	ringMems  ids.MemberList // ListOfRingMembers (coverage of this ring)
	neighbors ids.MemberList // ListOfNeighborMembers (fast handoff)

	// queue is the MQ of Section 4.2.
	queue *mq.Queue

	// Token engine state. pass is the outstanding token pass awaiting
	// its wire.PassAck, holding a copy of the token sent; notifyWait the
	// notifications awaiting their wire.NotifyAck, found by sequence
	// number, and notifyFree the records of finished ones, kept for the
	// next (resend.go). A body this node sent is its receiver's: the
	// node keeps only these copies of it.
	roundSeq   uint64
	pass       resend[token.Token]
	passWait   []*token.Token // tokens waiting their turn behind pass (passToken), owned here
	notifySeq  uint64
	notifyWait []*resend[wire.Notify]
	notifyFree []*resend[wire.Notify]

	// route is the itinerary of this node's rounds as holder: its
	// roster rotated to start here. Every round it starts shares it
	// until the roster changes (itinerary). forwarder is the
	// Contributors of its notified rounds, shared the same way until
	// the forwarder changes (forwardedBy).
	route     []ids.NodeID
	forwarder []ids.NodeID

	// openRound retains the operations of this node's outstanding
	// round as holder, so the token-loss watchdog can re-submit them if
	// the token dies with a crashed carrier after the pass was already
	// acknowledged. Cleared when the round terminates at this holder.
	// openRoundSeq identifies that round, so completing an ADOPTED
	// round (the original holder died and this node took it over) does
	// not discard the retained batch of this node's own open round.
	openRound    mq.Batch
	openRoundSeq uint64

	// ackScratch is the per-round deduplication scratch reused by
	// completeRound.
	ackScratch []ids.NodeID

	// lastTok identifies the most recently processed token so a
	// duplicate delivery (lost wire.PassAck followed by retransmission)
	// executes only once.
	lastTokHolder ids.NodeID
	lastTokRound  uint64

	// Batched view changes (batch.go): batchArmed marks an open batch
	// window whose flush timer will circulate the queue's contents.
	batchArmed bool

	// gone holds the version this node last removed each member at
	// (tombstone.go) for its newest tombstoneWindow removals: two dense
	// rings in burial order, GUIDs and versions, and a 16-bit index of
	// hash tags and ring positions, allocated on the first removal.
	gone ids.Tombstones
}

// ID returns the node's identity.
func (n *Node) ID() ids.NodeID { return n.id }

// Leader returns the node's current view of its ring leader.
func (n *Node) Leader() ids.NodeID { return n.leader }

// Roster returns a copy of the node's current ring roster.
func (n *Node) Roster() []ids.NodeID {
	out := make([]ids.NodeID, len(n.roster))
	copy(out, n.roster)
	return out
}

// LocalMembers returns the ListOfLocalMembers.
func (n *Node) LocalMembers() *ids.MemberList { return &n.local }

// RingMembers returns the ListOfRingMembers.
func (n *Node) RingMembers() *ids.MemberList { return &n.ringMems }

// isLeader reports whether this node currently believes it leads its
// ring.
func (n *Node) isLeader() bool { return n.leader == n.id }

// nextLive returns the successor of `after` in the roster.
func (n *Node) nextLive(after ids.NodeID) ids.NodeID {
	for i, m := range n.roster {
		if m == after {
			return n.roster[(i+1)%len(n.roster)]
		}
	}
	// After a repair the reference node may already be gone; fall
	// back to the leader, which is always in the roster.
	return n.leader
}

// prevLive returns the predecessor of `of` in the roster.
func (n *Node) prevLive(of ids.NodeID) ids.NodeID {
	for i, m := range n.roster {
		if m == of {
			return n.roster[(i-1+len(n.roster))%len(n.roster)]
		}
	}
	return n.leader
}

// rosterContains reports roster membership.
func (n *Node) rosterContains(id ids.NodeID) bool { return slices.Contains(n.roster, id) }

// excludeFromRoster removes a faulty/departed entity from the node's
// ring view, electing the successor if the leader is excluded — the
// deterministic repair rule every ring member applies identically.
func (n *Node) excludeFromRoster(dead ids.NodeID) {
	if !n.rosterContains(dead) || len(n.roster) == 1 {
		return
	}
	successor := n.nextLive(dead)
	out := n.roster[:0]
	for _, m := range n.roster {
		if m != dead {
			out = append(out, m)
		}
	}
	n.roster = out
	if n.leader == dead {
		n.leader = successor
		if n.leader == n.id && !n.parent.IsZero() {
			// New leader announces itself so the parent can repair
			// its Child pointer.
			n.sendNotify(n.parent, wire.Notify{
				From:         n.ringID,
				Up:           true,
				LeaderUpdate: true,
				NewLeader:    n.id,
			})
		}
	}
}

// insertIntoRoster admits a (re)joining entity immediately after the
// leader — the same deterministic position at every member.
func (n *Node) insertIntoRoster(joined ids.NodeID) {
	if n.rosterContains(joined) {
		return
	}
	for i, m := range n.roster {
		if m == n.leader {
			rest := append([]ids.NodeID{joined}, n.roster[i+1:]...)
			n.roster = append(n.roster[:i+1], rest...)
			return
		}
	}
	n.roster = append(n.roster, joined)
}

// HandleMessage implements runtime.Endpoint. The node is the final
// consumer of a notification or acknowledgement delivered to it and
// hands the body back once handled; a token is handed back by the
// holder it comes full circle to, or where it is dropped (receiveToken).
func (n *Node) HandleMessage(msg runtime.Message) {
	switch body := msg.Body.(type) {
	case wire.TokenMsg:
		n.receiveToken(body.Tok, msg.From)
		return
	case wire.MemberChange:
		n.receiveMemberMsg(body, msg.From)
	case *wire.Notify:
		n.receiveNotify(body, msg.From)
	case *wire.NotifyAck:
		n.receiveNotifyAck(body)
	case *wire.PassAck:
		n.receivePassAck(body, msg.From)
	case wire.Query:
		n.receiveQuery(body)
	case wire.JoinRequest:
		n.receiveJoinRequest(body)
	case wire.Snapshot:
		n.receiveSnapshot(body)
	case wire.MergeRequest:
		n.receiveMergeRequest(body)
	case *wire.HolderAck:
		// Informational at NEs; MH endpoints consume theirs directly.
	case wire.Probe:
		n.receiveProbe(msg.From)
	case wire.QueryReply:
		// Addressed to query apps; a misrouted or faulted copy
		// arriving at a network entity is ignored.
	case nil:
		// A corrupted frame can decode to an empty payload; drop it.
	default:
		panic(fmt.Sprintf("core: %s got unknown message %T", n.id, msg.Body))
	}
	n.sys.free.Recycle(msg.Body)
}

// receiveMemberMsg queues an MH-observed membership change
// (Member-Join/Leave/Handoff/Failure) into the MQ and requests a round.
func (n *Node) receiveMemberMsg(m wire.MemberChange, from ids.NodeID) {
	c := mq.Change{
		Op:      m.Op,
		Member:  m.Member,
		ReplyTo: from,
	}
	n.queue.Insert(c)
	n.sys.scheduleBatchedRound(n)
}

// startRound begins one execution of the one-round algorithm with this
// node as holder. extra carries a batch delivered by a notification
// (nil for locally-queued work); the holder's own MQ is always folded
// in when the direction allows it. forwarder is the entity that
// notified extra, zero for a batch of this ring's own.
//
// The round runs on extra itself, clipped so that an append never
// writes the notifier's array, and read-only like every token's Ops.
// A notified batch keeps its mobile hosts' ReplyTo: Figure 3
// acknowledges hop by hop, so the token names the forwarder in
// Contributors and completeRound acknowledges it instead.
func (n *Node) startRound(dir token.Direction, source ring.ID, extra mq.Batch, forwarder ids.NodeID) {
	n.roundSeq++
	tok := n.sys.free.Tokens.Take()
	tok.Reset(n.ringID, n.id, n.roundSeq, slices.Clip(extra), dir, source)
	if len(extra) > 0 && !forwarder.IsZero() {
		tok.Contributors = n.forwardedBy(forwarder)
	}
	if dir == token.FromLocal {
		tok.Fold(n.queue.DrainBatch())
	}
	// Retain the batch for watchdog recovery (copied, reusing the
	// node's scratch: downstream members append repair operations to
	// the token in place, and the rare post-requeue round starts with
	// a fresh buffer because requeueOpenRounds hands the old one off).
	// The requeued round is the ring's own, so the copy of a notified
	// batch replies to its forwarder.
	n.openRound = n.openRound[:0]
	if len(tok.Ops) > 0 {
		n.openRound = append(n.openRound, tok.Ops...)
		n.openRoundSeq = tok.Round
		if len(tok.Contributors) > 0 {
			readdress(n.openRound, forwarder)
		}
	}
	// Execute first: NE-Failure/NE-Join operations in the batch prune
	// or extend the holder's roster, and the itinerary must reflect
	// that (a convergence round must not revisit excluded entities).
	n.execute(tok)
	// Fix the itinerary: the holder's (now updated) view of the ring,
	// so the round's coverage does not depend on other members'
	// possibly-divergent views.
	tok.Route = n.itinerary()
	n.passToken(tok)
}

// forwardedBy returns the one-entry Contributors of a round that runs
// a batch notified by forwarder. The slice is shared by every such
// round and rebuilt only when the forwarder changes, so nothing may
// write it in place.
func (n *Node) forwardedBy(forwarder ids.NodeID) []ids.NodeID {
	if len(n.forwarder) != 1 || n.forwarder[0] != forwarder {
		n.forwarder = []ids.NodeID{forwarder}
	}
	return n.forwarder
}

// readdress points the Holder-Acknowledgements of a notified batch at
// its forwarder, for a copy that a ring resubmits as its own.
func readdress(batch mq.Batch, forwarder ids.NodeID) {
	for i := range batch {
		batch[i].ReplyTo = forwarder
	}
}

// itinerary returns the roster rotated to start at this node. The slice
// is shared by every round this node starts and rebuilt only when the
// roster no longer matches it, so nothing may write it in place.
func (n *Node) itinerary() []ids.NodeID {
	start := max(slices.Index(n.roster, n.id), 0)
	head, tail := n.roster[start:], n.roster[:start]
	if len(n.route) != len(n.roster) || !slices.Equal(n.route[:len(head)], head) || !slices.Equal(n.route[len(head):], tail) {
		n.route = slices.Concat(head, tail)
	}
	return n.route
}

// receiveToken is the per-node body of Figure 3 for a token arriving
// from the predecessor. The node owns the token from here: it passes
// it on, closes the round, or hands back a copy it drops.
func (n *Node) receiveToken(tok *token.Token, from ids.NodeID) {
	if tok == nil {
		return
	}
	if tok.Ring != n.ringID || !slices.Contains(tok.Route, tok.Holder) {
		// A misrouted or corrupted token from another ring must not be
		// acknowledged (the real successor's timer should still fire)
		// and must never execute here. Nor may one whose holder is not
		// on its route: a holder starts every round on its own
		// itinerary, so no entity would ever close such a round, and
		// the token would circulate for good.
		n.sys.free.Tokens.Put(tok)
		return
	}
	// Acknowledge the pass so the sender's retransmission timer stops.
	ack := n.sys.free.PassAcks.Take()
	*ack = wire.PassAck{Holder: tok.Holder, Round: tok.Round}
	n.sys.send(n.id, from, runtime.KindControl, ack)
	n.sys.noteTokenSeen(n.ring)

	// Retransmission can deliver the same token twice (the first copy
	// arrived but its acknowledgement was lost); execute only once.
	if tok.Holder == n.lastTokHolder && tok.Round == n.lastTokRound {
		n.sys.free.Tokens.Put(tok)
		return
	}
	n.lastTokHolder, n.lastTokRound = tok.Holder, tok.Round

	if tok.Holder == n.id {
		// Full circle: the round is complete.
		n.completeRound(tok)
		return
	}
	// Note: a node with pending local work does NOT fold it into a
	// passing token — ops folded mid-round would be missed by the
	// members (and the leader's parent notification) that already
	// executed this token. Pending work waits for its own round,
	// which the System dispatches when this one completes.
	n.execute(tok)
	n.passToken(tok)
}

// execute applies Token.OP at this node: updates the membership lists
// and emits the notifications of Figure 3.
func (n *Node) execute(tok *token.Token) {
	for _, c := range tok.Ops {
		n.applyChange(c)
	}
	// Notification-to-Parent: only the leader, only for changes
	// climbing the hierarchy.
	if n.isLeader() && !n.parent.IsZero() {
		var up mq.Batch
		if tok.Dir != token.FromParent {
			up = tok.Ops
		}
		n.notify(n.parent, true, up, &n.owedUp)
	}
	// Notification-to-Child: full dissemination sends every batch down
	// every child ring except the one it came from.
	if n.sys.cfg.Dissemination == DisseminateFull && n.hasChild {
		var down mq.Batch
		if !(tok.Dir == token.FromChild && tok.Source == n.childRing) {
			down = tok.Ops
		}
		n.notify(n.childLeader, false, down, &n.owedDown)
	}
}

// notify sends a round's batch for one link along with what the link
// owes, and sends nothing when both are empty. The batch is the token's
// Ops, shared; a batch with owed changes is the owed slice itself,
// handed to the notification whole.
func (n *Node) notify(to ids.NodeID, up bool, batch mq.Batch, owed *mq.Batch) {
	if len(*owed) > 0 {
		batch = append(*owed, batch...)
		*owed = nil
	}
	if len(batch) > 0 {
		n.sendNotify(to, wire.Notify{Batch: batch, From: n.ringID, Up: up})
	}
}

// owe adds the member changes of a notification that ran out of
// retries to what its link owes, keeping one change per member: the
// one that wins at the receiver (tombstone.go), the newer version, or
// the removal at equal versions. An entity operation concerns only its
// own ring, so none is owed.
func owe(owed, batch mq.Batch) mq.Batch {
	removes := func(c mq.Change) bool { return c.Op == mq.OpMemberLeave || c.Op == mq.OpMemberFailure }
next:
	for _, c := range batch {
		if !c.Op.IsMemberOp() {
			continue
		}
		for i, o := range owed {
			if o.Member.GUID == c.Member.GUID {
				if ids.VerAfter(c.Member.Ver, o.Member.Ver) || c.Member.Ver == o.Member.Ver && removes(c) {
					owed[i] = c
				}
				continue next
			}
		}
		owed = append(owed, c)
	}
	return owed
}

// applyChange updates the membership lists for one operation.
func (n *Node) applyChange(c mq.Change) {
	applied := false
	switch c.Op {
	case mq.OpMemberJoin, mq.OpMemberHandoff:
		m := c.Member
		m.Status = ids.StatusOperational
		applied = n.put(m)
	case mq.OpMemberLeave, mq.OpMemberFailure:
		applied = n.remove(c.Member.GUID, c.Member.Ver)
	case mq.OpNEFailure, mq.OpNELeave:
		// Roster surgery applies only inside the failed entity's own
		// ring; other rings just observe (and fix Child pointers).
		if c.NE != n.id && n.sys.sameRing(c.NE, n.id) {
			n.excludeFromRoster(c.NE)
		}
	case mq.OpNEJoin:
		if n.sys.sameRing(c.NE, n.id) {
			n.insertIntoRoster(c.NE)
		}
	}
	if applied && n.level == 0 && n.sys.observer != nil {
		// Commit point for observers: the topmost ring is the
		// authoritative view, and applying the op here is exactly when
		// GlobalMembership starts reflecting it. A change that changes
		// nothing here is not applied, so nobody hears it.
		n.sys.emitMemberChange(n, c)
	}
	if applied && n.level == 0 && n == &n.sys.top[0] && (c.Op == mq.OpMemberLeave || c.Op == mq.OpMemberFailure) {
		n.sys.collapse(c.Member.GUID, c.Member.Ver)
	}
}

// passToken forwards the token to the itinerary successor with
// retransmission protection; the pass keeps a copy and the token is the
// successor's. A ring spanning processes runs concurrent rounds, and a
// node has one pass: a token that finds it unacknowledged waits in
// passWait, even behind a round that came full circle, since a
// misrouted token can complete a round that skipped an entity.
func (n *Node) passToken(tok *token.Token) {
	if len(tok.Route) <= 1 {
		// Single-entity round: trivially complete.
		n.completeRound(tok)
		return
	}
	next := tok.NextOnRoute(n.id)
	if next == n.id {
		n.completeRound(tok)
		return
	}
	if n.pass.live {
		n.passWait = append(n.passWait, tok)
		return
	}
	n.pass.start(next, *tok, wire.TokenMsg{Tok: tok})
}

// passWaiting passes the tokens waiting for the link, oldest first,
// until one holds it again.
func (n *Node) passWaiting() {
	for !n.pass.live && len(n.passWait) > 0 {
		tok := n.passWait[0]
		n.passWait = slices.Delete(n.passWait, 0, 1)
		n.passToken(tok)
	}
}

// passTimedOut implements the token retransmission scheme: resend up
// to the policy budget, then declare the successor faulty, repair the
// ring locally, and route around it.
func (n *Node) passTimedOut() {
	if n.sys.tr.Crashed(n.id) {
		// A crashed carrier does no protocol work: in a live
		// deployment the kill destroys the process and its timers, and
		// the token in its hands is simply lost. Without this gate the
		// simulated corpse ghost-walks the whole repair (excluding
		// every ring-mate, completing the round and releasing the
		// ring), masking exactly the loss the watchdog must recover.
		n.pass.stop()
		n.passWait = nil // lost with the pass
		return
	}
	if n.pass.retry() {
		return
	}
	// Local repair (§5.2): exclude the dead successor, tell the rest
	// of the ring via an NE-Failure operation folded into the round's
	// token, and continue the round at the next live entity. With the
	// stability filter armed, the roster surgery waits until K distinct
	// observers concur — but the token routes around the suspect either
	// way, so an unconfirmed suspicion never wedges the round. The round
	// goes on in a Clone of the pass's copy, and every token waiting
	// behind it in a Clone of its own, adopted here if its holder died:
	// a pass may have arrived with only its ack lost, and then the
	// receiver holds the token that was sent, sharing the copy's slices.
	dead := n.pass.to
	n.passWait = slices.Insert(n.passWait, 0, n.pass.msg.Clone())
	n.pass.stop()
	for i, tok := range n.passWait {
		if slices.Contains(tok.Route, dead) {
			if i > 0 {
				tok = tok.Clone()
			}
			tok.DropFromRoute(dead)
			if tok.Holder == dead {
				tok.Holder = n.id
			}
			n.passWait[i] = tok
		}
	}
	if n.sys.confirmEviction(dead, n.id) {
		n.sys.noteRepair(n.ringID, dead)
		n.excludeFromRoster(dead)
		tok := n.passWait[0]
		tok.Repaired = true
		tok.Ops = append(tok.Ops, mq.Change{Op: mq.OpNEFailure, NE: dead})
	}
	n.passWaiting()
}

// receivePassAck stops the retransmission of the pass the ack names:
// it must come from the successor the in-flight token went to and carry
// that token's (Holder, Round). Anything else is the late ack of an
// earlier pass (the next round already started here) and stops nothing.
func (n *Node) receivePassAck(a *wire.PassAck, from ids.NodeID) {
	if !n.pass.awaits(from) {
		return
	}
	if tok := &n.pass.msg; tok.Holder == a.Holder && tok.Round == a.Round {
		n.pass.stop()
		n.passWaiting()
	}
}

// completeRound closes the round at the holder: Holder-Acknowledgement
// to every contributor of original messages, a convergence round if a
// repair happened mid-round, and release of the ring for the next
// round. The holder is the token's final consumer and hands it back.
func (n *Node) completeRound(tok *token.Token) {
	if tok.Round == n.openRoundSeq {
		n.openRound = n.openRound[:0]
	}
	// Acknowledge the forwarder of a notified batch, or else the
	// distinct originators (Figure 3 lines 17-20). The dedup scratch
	// lives on the node: batches are small (a linear scan beats a map)
	// and the buffer is reused across rounds.
	to := tok.Contributors
	if len(to) == 0 {
		to = n.ackScratch[:0]
		for _, c := range tok.Ops {
			if !c.ReplyTo.IsZero() && !slices.Contains(to, c.ReplyTo) {
				to = append(to, c.ReplyTo)
			}
		}
		n.ackScratch = to[:0]
	}
	for _, a := range to {
		if a != n.id {
			ack := n.sys.free.HolderAcks.Take()
			*ack = wire.HolderAck{Ring: n.ringID, Round: tok.Round, Count: len(tok.Ops)}
			n.sys.send(n.id, a, runtime.KindAck, ack)
		}
	}
	n.sys.roundDone(n, tok, tok.Repaired)
	n.sys.free.Tokens.Put(tok)
}

// receiveNotify handles Notification-to-Parent / Notification-to-Child.
// An entity awaiting its post-restore Snapshot neither acknowledges nor
// acts on a batch, since the Snapshot will replace its lists: the batch
// stays with the sender, which retries and then owes it. A leader
// update touches no list, so it is taken either way.
func (n *Node) receiveNotify(m *wire.Notify, from ids.NodeID) {
	if n.sys.neStale(n.id) && !m.LeaderUpdate {
		return
	}
	ack := n.sys.free.NotifyAcks.Take()
	*ack = wire.NotifyAck{Seq: m.Seq}
	n.sys.send(n.id, from, runtime.KindControl, ack)
	switch {
	case m.LeaderUpdate:
		// From the child ring's new leader.
		n.childLeader = m.NewLeader
	case m.Up:
		// From a child ring below this node.
		n.sys.requestRoundWithBatch(n, token.FromChild, m.From, m.Batch, from)
	default:
		// From the parent: this node is (or was) the child-ring leader.
		n.sys.requestRoundWithBatch(n, token.FromParent, m.From, m.Batch, from)
	}
}

// sendNotify sends a notification with retransmission protection. The
// record keeps m; each transmission sends a fresh body built from it.
// The batch is the sender's token Ops, shared and read-only at both
// ends.
func (n *Node) sendNotify(to ids.NodeID, m wire.Notify) {
	n.notifySeq++
	m.Seq = n.notifySeq
	r := n.takeNotify()
	n.notifyWait = append(n.notifyWait, r)
	r.start(to, m, nil)
}

// notifyTimedOut is the notification retransmission timer body: resend
// up to the policy budget, then give up and owe the batch to the link.
func (n *Node) notifyTimedOut(r *resend[wire.Notify]) {
	if r.retry() {
		return
	}
	m := r.msg
	n.releaseNotify(r)
	if m.Up {
		n.owedUp = owe(n.owedUp, m.Batch)
	} else {
		n.owedDown = owe(n.owedDown, m.Batch)
	}
}

func (n *Node) receiveNotifyAck(a *wire.NotifyAck) {
	for _, r := range n.notifyWait {
		if r.msg.Seq == a.Seq {
			n.releaseNotify(r)
			return
		}
	}
}

// receiveJoinRequest admits a rejoining entity: the leader queues an
// NE-Join operation (propagated by the normal one-round algorithm) and
// sends the joiner a state snapshot. A node that is itself stale
// (restored, awaiting its own snapshot) must not answer — its
// pre-crash view may wrongly claim leadership — so it re-routes to a
// current ring-mate.
func (n *Node) receiveJoinRequest(req wire.JoinRequest) {
	if req.Node.IsZero() || !n.sys.sameRing(req.Node, n.id) {
		// Misrouted (or corrupted): admitting a foreign entity would
		// corrupt this ring's roster.
		return
	}
	if n.sys.neStale(n.id) {
		for _, peer := range n.roster {
			if peer != n.id && peer != req.Node && !n.sys.tr.Crashed(peer) && !n.sys.neStale(peer) {
				n.sys.send(n.id, peer, runtime.KindControl, req)
				return
			}
		}
		return
	}
	var exclusion mq.Batch
	if n.leader == req.Node && !n.isLeader() {
		// A restored leader no round excluded: forwarding to it would
		// bounce the request back here forever, so run that repair now.
		// The NE-Failure rides as the round's own batch, since queued
		// it would swallow the NE-Join (in mq, failure dominates).
		n.sys.noteRepair(n.ringID, req.Node)
		n.excludeFromRoster(req.Node)
		exclusion = mq.Batch{{Op: mq.OpNEFailure, NE: req.Node}}
	}
	if !n.isLeader() {
		n.sys.send(n.id, n.leader, runtime.KindControl, req)
		return
	}
	if left, held := n.sys.quarantineLeft(req.Node); held {
		// A repeat-flapping entity serves out its quarantine before
		// rejoining: deferred, never dropped, so the rejoin still
		// completes once the hold expires. The exclusion, if any, goes
		// round now.
		n.sys.deferJoin(n, req, left)
		if exclusion != nil {
			n.sys.requestRoundWithBatch(n, token.FromLocal, ring.ID{}, exclusion, ids.NoNode)
		}
		return
	}
	n.queue.Insert(mq.Change{Op: mq.OpNEJoin, NE: req.Node})
	n.sys.send(n.id, req.Node, runtime.KindControl, wire.Snapshot{
		Roster:     n.Roster(),
		Leader:     n.leader,
		Members:    n.ringMems.Snapshot(),
		Tombstones: n.tombstoneList(),
	})
	n.sys.requestRoundWithBatch(n, token.FromLocal, ring.ID{}, exclusion, ids.NoNode)
}

// receiveSnapshot initializes this node from a leader's state after
// rejoin and lifts the staleness quarantine.
func (n *Node) receiveSnapshot(s wire.Snapshot) {
	if !s.Leader.IsZero() && !n.sys.sameRing(s.Leader, n.id) {
		// Misrouted: another ring's state must not overwrite this one.
		return
	}
	n.roster = append([]ids.NodeID(nil), s.Roster...)
	// Adopt the current leader BEFORE self-insertion: the insert
	// position (right after the leader) must match where the other
	// members' NE-Join application will place this node.
	n.leader = s.Leader
	n.insertIntoRoster(n.id)
	// The snapshot is all this entity knows of the time it was away, so
	// the bottom-tier lists are rebuilt from it too. Its tombstones bury
	// the members it saw removed, so a late, older change or merge does
	// not bring them back here.
	n.ringMems.Clear()
	n.local.Clear()
	n.neighbors.Clear()
	for _, t := range s.Tombstones {
		n.remove(t.GUID, t.Ver)
	}
	for _, m := range s.Members {
		n.put(m)
	}
	n.sys.clearStale(n.id)
}

// receiveMergeRequest folds a ring fragment into this one
// (Membership-Merge): absorb the fragment's membership list, admit
// its entities, snapshot the merged state back to them (so the very
// next token can traverse the united ring), and circulate NE-Join
// operations so every member of the kept fragment converges too.
func (n *Node) receiveMergeRequest(req wire.MergeRequest) {
	if len(req.Roster) == 0 {
		return // an empty fragment carries nothing to merge
	}
	for _, m := range req.Roster {
		if !n.sys.sameRing(m, n.id) {
			// Misrouted or corrupted: a foreign ring's fragment must
			// not be folded into this roster.
			return
		}
	}
	if !n.isLeader() {
		if n.sys.tr.Crashed(n.leader) {
			// The target fragment lost its leader before the merge
			// arrived: apply the deterministic repair (electing the
			// successor) so the request still lands on a live leader.
			dead := n.leader
			n.sys.noteRepair(n.ringID, dead)
			n.excludeFromRoster(dead)
		}
		if !n.isLeader() {
			n.sys.send(n.id, n.leader, runtime.KindControl, req)
			return
		}
	}
	// The union keeps each member's newest record (tombstone.go): it
	// neither resurrects a member that left while the cut held nor
	// discards one that rejoined in the fragment.
	for _, m := range req.Members {
		n.put(m)
	}
	for _, t := range req.Tombstones {
		n.remove(t.GUID, t.Ver)
	}
	var joiners []ids.NodeID
	for _, joined := range req.Roster {
		if joined != n.id && !n.rosterContains(joined) {
			joiners = append(joiners, joined)
			n.insertIntoRoster(joined)
		}
	}
	if len(joiners) == 0 {
		return // duplicate delivery (replay): the fragment already merged
	}
	// Snapshot the merged state to every other ring member, not only
	// the joiners: the NE-Join operations circulated below extend the
	// kept side's rosters but carry no membership records, so the
	// merged ListOfRingMembers must ship explicitly.
	snap := wire.Snapshot{Roster: n.Roster(), Leader: n.id, Members: n.ringMems.Snapshot(), Tombstones: n.tombstoneList()}
	for _, m := range n.roster {
		if m != n.id {
			n.sys.send(n.id, m, runtime.KindControl, snap)
		}
	}
	for _, j := range joiners {
		n.queue.Insert(mq.Change{Op: mq.OpNEJoin, NE: j})
	}
	n.sys.requestRound(n, token.FromLocal, ring.ID{})
}

// receiveProbe answers the heartbeat's merge probe (see
// System.probeExcluded): a live leader of a fragment that does not
// contain the prober folds its fragment into the prober's by sending a
// MergeRequest — but only when this side's ID is the higher one, so
// exactly one of two mutually-probing fragment leaders initiates and
// the merge direction is deterministic.
func (n *Node) receiveProbe(from ids.NodeID) {
	if from.IsZero() || !n.sys.sameRing(from, n.id) {
		return
	}
	if n.rosterContains(from) {
		// Probes are only ever sent to nodes the prober has excluded
		// from its roster, so a probe from a node still in OUR roster
		// exposes an asymmetric split: the prober — typically a leader
		// that was cut off alone and repaired its ring down to itself —
		// excluded this side, while this side never noticed. Leader
		// suspicion would eventually catch the silent leader, but it is
		// suppressed for as long as the ring sits busy behind the
		// token-loss watchdog (a cut that swallows an in-flight token
		// wedges the ring for len(ring)·retries·RTO). Excluding the
		// prober here turns this side into a self-aware fragment with a
		// live leader immediately, and the very next probe exchange
		// merges the two rings back.
		if from == n.leader && from != n.id {
			n.sys.noteRepair(n.ringID, from)
			n.excludeFromRoster(from)
		}
		return
	}
	if !n.isLeader() || n.sys.neStale(n.id) || n.id <= from {
		return
	}
	n.sys.send(n.id, from, runtime.KindControl, wire.MergeRequest{
		Roster:     n.Roster(),
		Members:    n.ringMems.Snapshot(),
		Tombstones: n.tombstoneList(),
	})
}
