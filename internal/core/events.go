package core

import (
	"fmt"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/runtime"
)

// EventKind is the type of one event the engine reports. A Watch
// subscriber hears every kind but EventRoundDone and EventBatchFlushed,
// which reach only the System's observer (Watched).
type EventKind uint8

// Membership event kinds.
const (
	// EventJoin: a Member-Join committed at the topmost ring.
	EventJoin EventKind = iota
	// EventLeave: a voluntary Member-Leave committed.
	EventLeave
	// EventFail: a detected Member-Failure committed.
	EventFail
	// EventHandoff: a Member-Handoff location change committed.
	EventHandoff
	// EventRepair: a local ring repair excluded a faulty entity.
	EventRepair
	// EventDropped: a synthetic gap marker — the subscriber fell
	// behind and Count events were dropped since its last delivered
	// event. Emitted by the subscription fan-out (rgb.Service.Watch),
	// never by the protocol engine itself.
	EventDropped
	// EventRoundDone (a token round this process started completed)
	// and EventBatchFlushed (a batch window closed with work) reach
	// only an observer, never a Watch subscriber.
	EventRoundDone
	EventBatchFlushed
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventFail:
		return "fail"
	case EventHandoff:
		return "handoff"
	case EventRepair:
		return "repair"
	case EventDropped:
		return "dropped"
	case EventRoundDone:
		return "round"
	case EventBatchFlushed:
		return "batch"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Watched reports whether a Watch subscriber hears events of kind k.
func (k EventKind) Watched() bool { return k != EventRoundDone && k != EventBatchFlushed }

// Event is one observed membership change or ring repair. Member
// events are emitted when the change commits at the topmost ring —
// the authoritative view that GlobalMembership reads — exactly once
// per member version (a re-circulated batch finds it already held).
// Repair events are emitted when a holder excludes a dead entity.
type Event struct {
	Kind   EventKind
	Member ids.MemberInfo // member events: the change's payload
	Ring   string         // repair events: the repaired ring
	Dead   ids.NodeID     // repair events: the excluded entity
	Count  int            // dropped events: how many events were lost
	At     runtime.Time   // protocol time of the observation
}

// String renders the event compactly (used by the golden sequence
// test and debug logs).
func (e Event) String() string {
	switch e.Kind {
	case EventRepair:
		return fmt.Sprintf("%s ring=%s dead=%s", e.Kind, e.Ring, e.Dead)
	case EventDropped:
		return fmt.Sprintf("%s count=%d", e.Kind, e.Count)
	default:
		return fmt.Sprintf("%s guid=%s ap=%s", e.Kind, e.Member.GUID, e.Member.AP)
	}
}

// Observation is one report of the engine to its observer: an Event
// (a commit or a repair) with what it cost, or a completed round or a
// flushed batch.
type Observation struct {
	Event
	// Took is a round's duration from its start at the holder, a
	// repair's token silence, or a commit's time since its submission,
	// which is Measured only for the current version of a member this
	// System submitted (a remote submitter measures its own).
	Took     time.Duration
	Measured bool
	Size     int // a flushed batch's count of operations
}

// SetObserver installs fn as the System's one observer (nil removes
// it). fn runs in engine context and must not block, send messages,
// arm timers or draw randomness, so observing never changes protocol
// behaviour; every report is gated on fn, so an unobserved System pays
// nothing. The rgb Service feeds Watch and telemetry from here.
func (s *System) SetObserver(fn func(Observation)) { s.observer = fn }

// emitMemberChange reports a member operation that the topmost entity
// from just applied if it would still change every other topmost entity
// this System hosts (changedBy), so only the first to apply it reports
// it, even one that has since crashed or been cut away. The emission
// order is the top ring's commit order. The caller has checked that an
// observer is installed.
func (s *System) emitMemberChange(from *Node, c mq.Change) {
	var kind EventKind
	switch c.Op {
	case mq.OpMemberJoin:
		kind = EventJoin
	case mq.OpMemberLeave:
		kind = EventLeave
	case mq.OpMemberFailure:
		kind = EventFail
	case mq.OpMemberHandoff:
		kind = EventHandoff
	default:
		return // NE roster surgery is reported via repair events
	}
	for i := range s.top {
		if n := &s.top[i]; n != from && !n.changedBy(c) {
			return
		}
	}
	o := Observation{Event: Event{Kind: kind, Member: c.Member, At: s.clock.Now()}}
	if mh, ok := s.members[c.Member.GUID]; ok && mh.Ver == c.Member.Ver {
		o.Took, o.Measured = o.At.Sub(mh.submitted), true
	}
	s.observer(o)
}
