package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/wire"
)

// QueryScheme names the membership maintenance/query schemes of
// Section 4.4. They are all instances of a level-parameterized query:
// TMS answers from the topmost ring (level 0), BMS gathers from every
// bottommost ring (level H−1), and IMS answers from an intermediate
// level.
type QueryScheme struct {
	// Level is the ring level whose ListOfRingMembers answers the
	// query: 0 = TMS, H-1 = BMS, anything between = IMS.
	Level int
}

// TMS returns the Topmost Membership Scheme.
func TMS() QueryScheme { return QueryScheme{Level: 0} }

// BMS returns the Bottommost Membership Scheme for a hierarchy of
// height h.
func BMS(h int) QueryScheme { return QueryScheme{Level: h - 1} }

// IMS returns an Intermediate Membership Scheme at the given level.
func IMS(level int) QueryScheme { return QueryScheme{Level: level} }

// String names the scheme.
func (q QueryScheme) String() string {
	return fmt.Sprintf("level-%d", q.Level)
}

// QueryResult reports one Membership-Query execution.
type QueryResult struct {
	Members  []ids.MemberInfo // aggregated membership answer
	Messages uint64           // query+reply messages on the wire
	Latency  time.Duration    // virtual time from request to last reply
	Replies  int              // ring leaders that answered
}

// queryCollector assembles one query's answer and the rings that have
// answered. A many-ring answer is an ids.MemberList, whose Put keeps a
// member where it was first seen with the later reply's record; a
// one-ring answer appends, since a single ring's list is duplicate-free.
// RunQuery takes it from and returns it to System.queryFree in engine
// context, so a System's queries reuse the same few buffers.
type queryCollector struct {
	dedup   bool             // more than one ring answers
	members []ids.MemberInfo // a one-ring answer
	merged  ids.MemberList   // a many-ring answer
	rings   []ring.ID
}

// add merges one ring's reply and reports whether that ring had not
// answered before: a replayed Query or QueryReply frame is not another
// ring.
func (c *queryCollector) add(rep wire.QueryReply) bool {
	if slices.Contains(c.rings, rep.From) {
		return false
	}
	c.rings = append(c.rings, rep.From)
	for _, m := range rep.Members {
		if !m.Status.Operational() {
			continue
		}
		if c.dedup {
			c.merged.Put(m)
		} else {
			c.members = append(c.members, m)
		}
	}
	return true
}

// answer returns a copy of the answer collected, [] when it is empty.
func (c *queryCollector) answer() []ids.MemberInfo {
	if c.dedup {
		return c.merged.Snapshot()
	}
	return slices.Clone(c.members)
}

// reset empties the collector for the next query, keeping its buffers.
func (c *queryCollector) reset() {
	c.members, c.rings = c.members[:0], c.rings[:0]
	c.merged.Clear()
}

// queryApp is the ephemeral requesting-application endpoint.
type queryApp struct {
	sys      *System
	node     ids.NodeID
	id       uint64
	expected int
	col      *queryCollector
	done     bool
	doneAt   runtime.Time
}

// HandleMessage collects replies. A round body misrouted here ends
// here, so the app hands it back.
func (a *queryApp) HandleMessage(msg runtime.Message) {
	rep, ok := msg.Body.(wire.QueryReply)
	if !ok {
		a.sys.free.Recycle(msg.Body)
		return
	}
	if rep.ID != a.id || a.done || !a.col.add(rep) {
		return
	}
	if len(a.col.rings) >= a.expected {
		a.done = true
		a.doneAt = a.sys.clock.Now()
	}
}

// Query apps take their endpoint ordinals from the top of the process's
// mobile-host block (Config.mhBase, one ids.MHBlockSize block), above
// queryOrdinalBase, and wrap there: an ordinal past the block would
// route every reply to the next process.
const queryOrdinalBase = 1 << 20

func (s *System) queryAppID() ids.NodeID {
	return ids.MakeNodeID(ids.TierMH, s.cfg.mhBase+queryOrdinalBase+int(s.querySeq%(ids.MHBlockSize-queryOrdinalBase)))
}

// RunQuery executes one Membership-Query from an application attached
// at the given entry AP, using the scheme's maintenance level. It
// drives the runtime until the query completes (or the substrate
// quiesces) and returns the aggregated answer with its cost.
//
// Unlike the other System methods, RunQuery may be called from any
// goroutine on a live runtime: the state-touching phases run in
// engine context, and only the wait between them happens on the
// caller.
func (s *System) RunQuery(entry ids.NodeID, scheme QueryScheme) (QueryResult, error) {
	var app *queryApp
	var before runtime.Stats
	var start runtime.Time
	// The sentinel is cleared by the setup phase itself: a closed live
	// runtime drops the Do body, and the query must fail rather than
	// dereference the never-built app.
	setupErr := errors.New("core: runtime unavailable")
	s.rt.Do(func() {
		setupErr = nil
		if scheme.Level < 0 || scheme.Level >= s.cfg.H {
			setupErr = fmt.Errorf("core: level %d of height-%d hierarchy: %w", scheme.Level, s.cfg.H, ErrQueryLevel)
			return
		}
		if err := s.requireAP(entry); err != nil {
			setupErr = err
			return
		}
		s.querySeq++
		app = &queryApp{
			sys:      s,
			node:     s.queryAppID(),
			id:       s.querySeq,
			expected: len(s.hier.Level(scheme.Level)),
		}
		if n := len(s.queryFree); n > 0 {
			app.col, s.queryFree = s.queryFree[n-1], s.queryFree[:n-1]
		} else {
			// members non-nil: an empty answer stays [], as Snapshot gave it.
			app.col = &queryCollector{members: []ids.MemberInfo{}}
		}
		app.col.dedup = app.expected > 1
		s.tr.Register(app.node, app)
		before = s.tr.Stats()
		start = s.clock.Now()
		s.send(app.node, entry, runtime.KindQuery, wire.Query{
			ID:      app.id,
			Level:   scheme.Level,
			ReplyTo: app.node,
		})
	})
	if setupErr != nil {
		return QueryResult{}, setupErr
	}
	// Drive the runtime until the app has all replies or nothing is
	// left to deliver.
	s.rt.RunUntil(func() bool { return app.done })
	var res QueryResult
	s.rt.Do(func() {
		s.tr.Unregister(app.node)
		after := s.tr.Stats()
		latency := app.doneAt.Sub(start)
		if !app.done {
			// A straggler must not write into the collector handed back below.
			app.done = true
			latency = s.clock.Now().Sub(start)
		}
		col := app.col
		res = QueryResult{
			Members:  col.answer(),
			Messages: (after.DeliveredOf(runtime.KindQuery) - before.DeliveredOf(runtime.KindQuery)) + (after.DeliveredOf(runtime.KindReply) - before.DeliveredOf(runtime.KindReply)),
			Latency:  latency,
			Replies:  len(col.rings),
		}
		col.reset()
		s.queryFree = append(s.queryFree, col)
	})
	return res, nil
}

// receiveQuery implements the routing of the Membership-Query
// algorithm at a network entity.
//
// Upward phase: the query climbs — node to its ring leader, leader to
// its parent — until it reaches the topmost ring.
//
// Downward phase: from the topmost ring (or once the query is at its
// target level) the query fans out: each ring circulates it so every
// node forwards one copy to its child ring's leader, until leaders at
// the target level reply with their ListOfRingMembers.
func (n *Node) receiveQuery(q wire.Query) {
	if !q.Down {
		// Climbing toward the top.
		if n.level > 0 {
			if !n.isLeader() {
				n.forwardQuery(n.leader, q)
				return
			}
			n.forwardQuery(n.parent, q)
			return
		}
		// Reached the topmost ring: switch to the downward phase.
		q.Down = true
	}
	if n.level == q.Level {
		// Answer from this ring's membership list. Exactly one node
		// per target-level ring receives the query (the downward copy
		// goes to ring leaders; a level-0 query answers at whichever
		// top node the climb reached). A reply to a transport the System
		// lent its lists, which copies or encodes it before Send returns,
		// lends the list's own slots; one the transport keeps (the
		// simulator, a fault decorator) takes the read-only copy that the
		// replies between two changes of the list share.
		var members []ids.MemberInfo
		if n.sys.lent {
			members = n.ringMems.Borrow()
		} else {
			members = n.ringMems.Shared()
		}
		n.sys.send(n.id, q.ReplyTo, runtime.KindReply, wire.QueryReply{ID: q.ID, From: n.ringID, Members: members})
		return
	}
	// Fan out below: circulate one copy around this ring — each node
	// forwards one copy to its child ring's leader — and stop after a
	// full pass.
	if q.EntryRing != n.ringID {
		q.EntryRing = n.ringID
		q.Entry = n.id
	}
	if n.hasChild {
		down := q
		down.EntryRing = ring.ID{} // next ring re-stamps its entry
		down.Entry = ids.NoNode
		n.forwardQuery(n.childLeader, down)
	}
	if next := n.nextLive(n.id); next != q.Entry {
		n.forwardQuery(next, q)
	}
}

func (n *Node) forwardQuery(to ids.NodeID, q wire.Query) {
	if to.IsZero() {
		return
	}
	n.sys.send(n.id, to, runtime.KindQuery, q)
}

// VerifyQueryAnswer checks a query result against the authoritative
// top-ring membership, returning the number of missing and extra
// members. Used by tests and the experiment sweep.
func (s *System) VerifyQueryAnswer(res QueryResult) (missing, extra int) {
	truth := map[ids.GUID]bool{}
	for _, m := range s.GlobalMembership() {
		if m.Status.Operational() {
			truth[m.GUID] = true
		}
	}
	got := map[ids.GUID]bool{}
	for _, m := range res.Members {
		got[m.GUID] = true
	}
	for g := range truth {
		if !got[g] {
			missing++
		}
	}
	for g := range got {
		if !truth[g] {
			extra++
		}
	}
	return missing, extra
}
