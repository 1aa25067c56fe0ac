// Package mq implements the MQ data structure of Section 4.2: a
// per-entity message queue that is "self-optimized for aggregating some
// successive messages into one for further processing". It also defines
// the membership-change operation vocabulary (the
// TypeOfAggregatedOperations carried by tokens): Member-Join / Leave /
// Handoff / Failure, NE-Join / Leave / Failure,
// Notification-to-Parent / Child and Holder-Acknowledgement.
//
// Aggregation semantics: the queue keeps at most one pending change per
// subject (member GUID or network-entity NodeID). Successive changes to
// the same subject collapse by a small state machine — e.g. a
// Member-Join immediately followed by a Member-Leave annihilates before
// it ever costs a token round, and two successive handoffs collapse to
// the latest one. This is exactly the "aggregating some successive
// messages into one" optimisation, and it is what the E5 ablation
// (aggregation on/off) measures.
package mq

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/ids"
)

// Op is one membership-change operation type (Section 4.2, Token.OP).
type Op uint8

// Operation types carried in tokens and queues.
const (
	OpNone          Op = iota // no pending change (internal sentinel)
	OpMemberJoin              // an MH joined the group
	OpMemberLeave             // an MH left voluntarily
	OpMemberHandoff           // an MH moved to a different AP
	OpMemberFailure           // an MH was detected faulty
	OpNEJoin                  // a network entity joined the hierarchy
	OpNELeave                 // a network entity left gracefully
	OpNEFailure               // a network entity was detected faulty
	OpNotifyParent            // Notification-to-Parent (ring leader -> parent)
	OpNotifyChild             // Notification-to-Child (node -> child)
	OpHolderAck               // Holder-Acknowledgement (holder -> children)
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpNone:
		return "none"
	case OpMemberJoin:
		return "member-join"
	case OpMemberLeave:
		return "member-leave"
	case OpMemberHandoff:
		return "member-handoff"
	case OpMemberFailure:
		return "member-failure"
	case OpNEJoin:
		return "ne-join"
	case OpNELeave:
		return "ne-leave"
	case OpNEFailure:
		return "ne-failure"
	case OpNotifyParent:
		return "notify-parent"
	case OpNotifyChild:
		return "notify-child"
	case OpHolderAck:
		return "holder-ack"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// IsMemberOp reports whether the operation concerns a mobile host.
func (o Op) IsMemberOp() bool {
	return o >= OpMemberJoin && o <= OpMemberFailure
}

// IsNEOp reports whether the operation concerns a network entity.
func (o Op) IsNEOp() bool { return o >= OpNEJoin && o <= OpNEFailure }

// Change is one membership-change record: the unit queued in MQs,
// aggregated into token batches, and propagated up the hierarchy.
type Change struct {
	Op     Op             // what happened
	Member ids.MemberInfo // subject MH (member ops; Member.GUID is the key)
	NE     ids.NodeID     // subject entity (NE ops)
	Origin ids.NodeID     // entity that first observed the change
	Seq    uint64         // origin-local sequence number, for tracing

	// ReplyTo addresses the Holder-Acknowledgement for this change in a
	// ring's own round: the mobile host that submitted it. A round that
	// runs a notified batch acknowledges the forwarder its token names
	// in Contributors instead (Figure 3 acknowledges hop by hop), and
	// leaves ReplyTo as it is; only a copy that a ring resubmits as its
	// own round names the forwarder here.
	ReplyTo ids.NodeID
}

// Subject returns the aggregation key for the change: member GUID for
// member ops, NodeID for NE ops.
func (c Change) Subject() any {
	if c.Op.IsMemberOp() {
		return c.Member.GUID
	}
	return c.NE
}

// String renders a compact description.
func (c Change) String() string {
	if c.Op.IsMemberOp() {
		return fmt.Sprintf("%s(%s@%s)", c.Op, c.Member.GUID, c.Member.AP)
	}
	return fmt.Sprintf("%s(%s)", c.Op, c.NE)
}

// Batch is an ordered set of aggregated changes drained from a queue —
// the payload of one token round.
type Batch []Change

// Empty reports whether the batch carries no changes.
func (b Batch) Empty() bool { return len(b) == 0 }

// Stats counts queue activity for the aggregation ablation.
type Stats struct {
	Enqueued    uint64 // Insert calls
	Collapsed   uint64 // changes absorbed into an existing pending change
	Annihilated uint64 // pending changes cancelled outright (join+leave)
	Drained     uint64 // changes handed out in batches
}

// Queue is the self-optimising message queue of one network entity.
// The zero value is not usable; call New.
type Queue struct {
	aggregate bool
	pending   []Change    // live changes in arrival order
	bySubject map[any]int // subject -> index into pending (-1 = tombstone)
	stats     Stats
}

// New returns an empty queue. When aggregate is false the queue is a
// plain FIFO (used as the ablation baseline).
func New(aggregate bool) *Queue {
	return &Queue{aggregate: aggregate, bySubject: make(map[any]int)}
}

// Len returns the number of live pending changes.
func (q *Queue) Len() int {
	n := 0
	for _, c := range q.pending {
		if c.Op != OpNone {
			n++
		}
	}
	return n
}

// Stats returns a copy of the counters.
func (q *Queue) Stats() Stats { return q.stats }

// Insert queues a change, aggregating with any pending change to the
// same subject per the collapse rules. Notification and ack ops are
// control-plane records and are never aggregated.
func (q *Queue) Insert(c Change) {
	q.stats.Enqueued++
	if !q.aggregate || c.Op == OpNotifyParent || c.Op == OpNotifyChild || c.Op == OpHolderAck {
		q.append(c)
		return
	}
	key := c.Subject()
	idx, ok := q.bySubject[key]
	if !ok || idx < 0 || q.pending[idx].Op == OpNone {
		q.append(c)
		return
	}
	prev := q.pending[idx]
	merged, annihilate := collapse(prev, c)
	if annihilate {
		q.pending[idx].Op = OpNone // tombstone; removed on drain
		delete(q.bySubject, key)
		q.stats.Annihilated++
		return
	}
	q.pending[idx] = merged
	q.stats.Collapsed++
}

func (q *Queue) append(c Change) {
	q.bySubject[c.Subject()] = len(q.pending)
	q.pending = append(q.pending, c)
}

// collapse merges a new change into a pending one for the same subject.
// It returns the merged change, or annihilate=true when the two cancel
// so the subject disappears from the queue entirely.
//
// The rules preserve the net effect as seen by the upper tiers, which
// have not yet observed the pending change:
//
//	Join    + Leave   -> (nothing)        never happened upstream
//	Join    + Failure -> (nothing)        same, member never visible
//	Join    + Handoff -> Join @ new AP
//	Leave   + Join    -> Handoff/Join     member is back; upstream sees update
//	Failure + Join    -> Handoff          same: a re-join is never swallowed
//	Handoff + Handoff -> Handoff @ latest
//	Handoff + Leave   -> Leave
//	Handoff + Failure -> Failure
//	Leave   + Failure -> Leave            already leaving; keep benign op
//	Failure + other   -> Failure          failure dominates
//	NEJoin  + NELeave/NEFailure -> (nothing), and symmetrically
func collapse(prev, next Change) (Change, bool) {
	switch {
	case prev.Op == OpMemberJoin && (next.Op == OpMemberLeave || next.Op == OpMemberFailure):
		return Change{}, true
	case prev.Op == OpMemberJoin && next.Op == OpMemberHandoff:
		next.Op = OpMemberJoin
		return next, false
	case (prev.Op == OpMemberLeave || prev.Op == OpMemberFailure) && next.Op == OpMemberJoin:
		// Upstream believes the member exists (the removal not yet
		// sent), so the net effect is a location update.
		next.Op = OpMemberHandoff
		return next, false
	case prev.Op == OpMemberHandoff && next.Op == OpMemberHandoff:
		return next, false
	case prev.Op == OpMemberHandoff && (next.Op == OpMemberLeave || next.Op == OpMemberFailure):
		return next, false
	case prev.Op == OpMemberLeave && next.Op == OpMemberFailure:
		return prev, false
	case prev.Op == OpMemberFailure:
		return prev, false
	case prev.Op == OpNEJoin && (next.Op == OpNELeave || next.Op == OpNEFailure):
		return Change{}, true
	case prev.Op == OpNELeave && next.Op == OpNEJoin:
		return next, false
	case prev.Op == OpNEFailure:
		return prev, false
	default:
		// No special rule: newest observation wins.
		return next, false
	}
}

// DrainBatch removes and returns up to max live changes (all of them if
// max <= 0), in arrival order. Tombstones are discarded.
func (q *Queue) DrainBatch(max int) Batch {
	var out Batch
	consumed := 0
	for consumed < len(q.pending) {
		c := q.pending[consumed]
		consumed++
		if c.Op == OpNone {
			continue
		}
		out = append(out, c)
		delete(q.bySubject, c.Subject())
		if max > 0 && len(out) >= max {
			break
		}
	}
	// The survivors move to the front, so the queue keeps its array and
	// the next Insert appends into capacity; out is a fresh array, which
	// a round takes as its Ops.
	q.pending = q.pending[:copy(q.pending, q.pending[consumed:])]
	// Reindex the survivors (cheap: queues are short between rounds).
	for k := range q.bySubject {
		delete(q.bySubject, k)
	}
	for i, c := range q.pending {
		if c.Op != OpNone {
			q.bySubject[c.Subject()] = i
		}
	}
	q.stats.Drained += uint64(len(out))
	return out
}

// Peek returns the live pending changes without removing them.
func (q *Queue) Peek() Batch {
	var out Batch
	for _, c := range q.pending {
		if c.Op != OpNone {
			out = append(out, c)
		}
	}
	return out
}

// Clear drops everything.
func (q *Queue) Clear() {
	q.pending = q.pending[:0]
	for k := range q.bySubject {
		delete(q.bySubject, k)
	}
}
