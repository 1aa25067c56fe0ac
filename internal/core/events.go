package core

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/runtime"
)

// EventKind is the type of one membership event observed by a
// subscriber.
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
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

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

// SetEventSink installs fn as the system's event observer (nil
// disables observation). The sink is invoked in engine context and
// must not block; the rgb Service fans events out to Watch
// subscribers from here.
func (s *System) SetEventSink(fn func(Event)) { s.eventSink = fn }

// emitMemberChange reports a member operation that the topmost entity
// from just applied if it would still change every other topmost entity
// this System hosts (changedBy), so only the first to apply it reports
// it, even one that has since crashed or been cut away. The emission
// order is the top ring's commit order.
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
	s.observeViewChange(kind, c.Member)
	if s.eventSink != nil {
		s.eventSink(Event{Kind: kind, Member: c.Member, At: s.clock.Now()})
	}
}

// emitRepair reports one local ring repair.
func (s *System) emitRepair(id ring.ID, dead ids.NodeID) {
	if s.eventSink == nil {
		return
	}
	s.eventSink(Event{Kind: EventRepair, Ring: id.String(), Dead: dead, At: s.clock.Now()})
}
