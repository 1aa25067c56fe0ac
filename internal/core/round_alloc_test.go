package core

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/simnet"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/wire"
)

// traceSends calls fn with every message the simulator carries.
func traceSends(sys *System, fn func(runtime.Message)) {
	sys.Runtime().(*simnet.SimRuntime).Net().SetTrace(func(m runtime.Message, _ string) { fn(m) })
}

// joinAllocBudget is what one Member-Join may allocate at h=3 r=5 under
// DisseminateFull, warm: 31 rounds whose tokens, notifications and
// acknowledgements all come off the System's free lists (137 when each
// was allocated per send). What is left is the join's own: its Member
// record, its boxed submission, the access proxy's drained batch, and
// about seven for the 31 membership lists that grow to take a new
// member. A body, a copy of the batch, a notification record, an
// itinerary or a contributor list per round or per hop each cost tens
// of allocations here.
const joinAllocBudget = 12

// TestJoinAllocBudget locks the per-join allocation of a three-level
// hierarchy, where every ring runs a round for every change.
func TestJoinAllocBudget(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	aps := sys.APs()
	next := ids.GUID(1)
	join := func() {
		if _, err := sys.JoinMemberAt(next, aps[int(next)%len(aps)]); err != nil {
			t.Fatal(err)
		}
		next++
		sys.Run()
	}
	for i := 0; i < 64; i++ {
		join()
	}
	allocs := testing.AllocsPerRun(200, join)
	t.Logf("a join at h=3 r=5: %.2f allocs", allocs)
	if allocs > joinAllocBudget {
		t.Errorf("a join at h=3 r=5 allocates %.1f times, budget %d", allocs, joinAllocBudget)
	}
	if got := len(sys.GlobalMembership()); got != int(next)-1 {
		t.Fatalf("membership = %d, want %d", got, next-1)
	}
}

// retainedHeapBudget is the live heap a System at h=4 r=5 may keep with
// 500 members joined: 780 entities, each with its roster, queue and the
// lists of §4.2, where a ring's list holds only the members its subtree
// covers. A full-group list at every entity keeps ten times as much.
const retainedHeapBudget = 4 << 20

// liveHeap returns the live heap after two collections.
func liveHeap() uint64 {
	var ms goruntime.MemStats
	goruntime.GC()
	goruntime.GC()
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetainedHeapBudget locks what a System keeps once its members have
// joined, measured after two collections on each side (liveHeap).
func TestRetainedHeapBudget(t *testing.T) {
	before := liveHeap()
	sys := NewSystem(quietConfig(4, 5))
	aps := sys.APs()
	for g := 1; g <= 500; g++ {
		if _, err := sys.JoinMemberAt(ids.GUID(g), aps[g%len(aps)]); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	kept := int64(liveHeap()) - int64(before)
	if got := len(sys.GlobalMembership()); got != 500 {
		t.Fatalf("membership = %d, want 500", got)
	}
	if kept > retainedHeapBudget {
		t.Errorf("a System at h=4 r=5 with 500 members keeps %.1f MB of live heap, budget %.1f MB",
			float64(kept)/(1<<20), float64(retainedHeapBudget)/(1<<20))
	}
}

// tombstoneHeapBudget is the live heap a System at h=4 r=5 with 500
// members may add when they all leave: each of its 780 entities then
// holds 500 tombstones, so the budget is about 21 bytes a tombstone. A Go
// map of versions capped by a FIFO of GUIDs added 16.8 MB.
const tombstoneHeapBudget = 8 << 20

// TestTombstoneHeapBudget locks what the removal windows cost: the live
// heap the leaves add, measured as TestRetainedHeapBudget measures.
func TestTombstoneHeapBudget(t *testing.T) {
	sys := NewSystem(quietConfig(4, 5))
	aps := sys.APs()
	for g := 1; g <= 500; g++ {
		if _, err := sys.JoinMemberAt(ids.GUID(g), aps[g%len(aps)]); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	before := liveHeap()
	for g := 1; g <= 500; g++ {
		if err := sys.LeaveMember(ids.GUID(g)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	grown := int64(liveHeap()) - int64(before)
	if got := len(sys.GlobalMembership()); got != 0 {
		t.Fatalf("membership = %d, want 0", got)
	}
	if got := sys.Node(aps[0]).gone.Len(); got != 500 {
		t.Fatalf("an access proxy holds %d tombstones, want 500", got)
	}
	if grown > tombstoneHeapBudget {
		t.Errorf("500 leaves at h=4 r=5 grow the live heap by %.1f MB, budget %.1f MB",
			float64(grown)/(1<<20), float64(tombstoneHeapBudget)/(1<<20))
	}
}

// TestNotifiedBatchSharesTokenOps: a notification carries the sender's
// token Ops themselves, the receiving ring's round runs on that very
// batch, clipped, and neither round writes it. The batch keeps the mobile
// host's reply address; the round names its forwarder in Contributors,
// so at h=2 r=3 the top-ring holder acknowledges the bottom-ring leader
// that notified it, not the mobile host.
func TestNotifiedBatchSharesTokenOps(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	ap := sys.Node(sys.APs()[1])
	leader := sys.Node(ap.Leader())
	parent := leader.Parent()

	var up wire.Notify
	var sent mq.Batch // the notified batch as it was sent
	var passed []token.Token
	var acks []runtime.Message
	traceSends(sys, func(m runtime.Message) {
		switch b := m.Body.(type) {
		case *wire.Notify:
			if m.From == leader.ID() && m.To == parent && sent == nil {
				up, sent = *b, slices.Clone(b.Batch)
			}
		case wire.TokenMsg:
			passed = append(passed, *b.Tok)
		case *wire.HolderAck:
			acks = append(acks, m)
		}
	})
	mh, err := sys.JoinMemberAt(1, ap.ID())
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()

	if len(sent) != 1 || sent[0].ReplyTo != mh.Node() {
		t.Fatalf("the notification to %s carried %+v, want the join with the mobile host's reply address", parent, sent)
	}
	var bottom, top *token.Token
	for i := range passed {
		switch tok := &passed[i]; {
		case tok.Ring == ap.Ring() && bottom == nil:
			bottom = tok
		case tok.Holder == parent && top == nil:
			top = tok
		}
	}
	if bottom == nil || top == nil {
		t.Fatalf("no bottom-ring (%v) or top-ring round held by %s (%v)", bottom, parent, top)
	}
	if unsafe.SliceData(up.Batch) != unsafe.SliceData(bottom.Ops) {
		t.Error("the notification does not carry the bottom-ring token's Ops")
	}
	if unsafe.SliceData(top.Ops) != unsafe.SliceData(up.Batch) || len(top.Ops) != len(up.Batch) || cap(top.Ops) != len(top.Ops) {
		t.Errorf("the top-ring round's Ops (len %d, cap %d) are not the notified batch (len %d), clipped", len(top.Ops), cap(top.Ops), len(up.Batch))
	}
	if !slices.Equal(top.Contributors, []ids.NodeID{leader.ID()}) {
		t.Errorf("the top-ring round names contributors %v, want the forwarder %s", top.Contributors, leader.ID())
	}
	if !slices.Equal(up.Batch, sent) || up.Batch[0].ReplyTo != mh.Node() {
		t.Errorf("the notified batch changed after it was sent:\n now %+v\nsent %+v", up.Batch, sent)
	}
	if bottom.Contributors != nil {
		t.Errorf("the bottom ring's own round names contributors %v", bottom.Contributors)
	}
	var fromTop []ids.NodeID
	for _, m := range acks {
		if m.From == parent {
			fromTop = append(fromTop, m.To)
		}
	}
	if !slices.Equal(fromTop, []ids.NodeID{leader.ID()}) {
		t.Errorf("the top-ring holder %s acknowledged %v, want only the bottom-ring leader %s", parent, fromTop, leader.ID())
	}
}

// TestItinerarySharedBetweenRounds: the rounds one holder starts share
// one Route until its roster changes. A pass given up repairs the round
// in a copy with a route of its own, and the next round gets a new
// itinerary; neither writes the route earlier tokens carry.
func TestItinerarySharedBetweenRounds(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	p, h := ringPair(sys)
	var held []token.Token // the first pass of each of p's rounds, as sent
	traceSends(sys, func(m runtime.Message) {
		if b, ok := m.Body.(wire.TokenMsg); ok && m.From == p.ID() && b.Tok.Holder == p.ID() &&
			!slices.ContainsFunc(held, func(h token.Token) bool { return h.Round == b.Tok.Round }) {
			held = append(held, *b.Tok)
		}
	})
	join := func(g ids.GUID) token.Token {
		t.Helper()
		from := len(held)
		if _, err := sys.JoinMemberAt(g, p.ID()); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if len(held) == from {
			t.Fatalf("the join of %s started no round at %s", g, p.ID())
		}
		return held[from]
	}

	first, second := join(1), join(2)
	if unsafe.SliceData(first.Route) != unsafe.SliceData(second.Route) {
		t.Fatal("two rounds of one holder built two itineraries")
	}
	itinerary := slices.Clone(second.Route)

	sys.CrashNE(h)
	repaired := join(3)
	if p.Repairs() != 1 {
		t.Fatalf("%d repairs at %s, want the give-up on %s", p.Repairs(), p.ID(), h)
	}
	if unsafe.SliceData(repaired.Route) != unsafe.SliceData(second.Route) || !slices.Equal(second.Route, itinerary) {
		t.Fatalf("the repair changed the shared itinerary: %v, was %v", second.Route, itinerary)
	}

	after := join(4)
	if unsafe.SliceData(after.Route) == unsafe.SliceData(second.Route) || slices.Contains(after.Route, h) || len(after.Route) != len(itinerary)-1 {
		t.Errorf("the round after the repair follows %v, want a new itinerary without %s", after.Route, h)
	}
	if !slices.Equal(second.Route, itinerary) {
		t.Errorf("a roster change wrote the earlier round's route: %v, was %v", second.Route, itinerary)
	}
}

// TestNotifyRecordsReused: a node keeps the records of acknowledged
// notifications for the next ones, so after a thousand notifications
// none is in flight and each node keeps at most notifyFreeMax.
func TestNotifyRecordsReused(t *testing.T) {
	sys := NewSystem(quietConfig(2, 3))
	notified := 0
	traceSends(sys, func(m runtime.Message) {
		if m.Kind == runtime.KindNotify {
			notified++
		}
	})
	aps := sys.APs()
	for g := ids.GUID(1); notified < 1000; g++ {
		if _, err := sys.JoinMemberAt(g, aps[int(g)%len(aps)]); err != nil {
			t.Fatal(err)
		}
		sys.Run()
	}
	kept := 0
	for _, n := range sys.nodes {
		if len(n.notifyWait) != 0 {
			t.Errorf("%s: %d notifications still in flight", n.ID(), len(n.notifyWait))
		}
		if len(n.notifyFree) > notifyFreeMax {
			t.Errorf("%s keeps %d records, bound %d", n.ID(), len(n.notifyFree), notifyFreeMax)
		}
		kept += len(n.notifyFree)
	}
	if kept == 0 || kept > 2*len(sys.nodes) {
		t.Errorf("%d records kept for %d notifications across %d nodes", kept, notified, len(sys.nodes))
	}
}

// TestNotifyGiveUpLeavesNoRecord: a notification to a crashed parent is
// sent 1 + MaxRetries times and then given up. The record is released
// with its timer, so nothing stays in flight and the kernel holds no
// event more than before the join. The batch is owed to the link
// instead: once the parent is restored, the next round through the
// leader delivers it with its own change.
func TestNotifyGiveUpLeavesNoRecord(t *testing.T) {
	cfg := quietConfig(2, 3)
	cfg.Retransmit.MaxRetries = 3
	sys := NewSystem(cfg)
	kernel := sys.Runtime().(*simnet.SimRuntime).Kernel()
	ap := sys.Node(sys.APs()[0])
	leader := sys.Node(ap.Leader())
	sys.CrashNE(leader.Parent())
	sends := 0
	traceSends(sys, func(m runtime.Message) {
		if m.Kind == runtime.KindNotify && m.From == leader.ID() && m.To == leader.Parent() {
			sends++
		}
	})
	baseline := kernel.Pending()
	if _, err := sys.JoinMemberAt(1, ap.ID()); err != nil {
		t.Fatal(err)
	}
	sys.Run()

	if want := 1 + cfg.Retransmit.MaxRetries; sends != want {
		t.Errorf("the notification went to the crashed parent %d times, want %d", sends, want)
	}
	if len(leader.notifyWait) != 0 || len(leader.notifyFree) != 1 {
		t.Errorf("after the give-up: %d notifications in flight, %d records kept; want 0 and 1", len(leader.notifyWait), len(leader.notifyFree))
	}
	if got := kernel.Pending(); got != baseline {
		t.Errorf("%d kernel events pending after the run, %d before the join", got, baseline)
	}
	if len(leader.owedUp) != 1 || leader.owedUp[0].Member.GUID != 1 {
		t.Fatalf("the leader owes its parent %v, want the join of mh-1", leader.owedUp)
	}

	sys.RestoreNE(leader.Parent())
	sys.Run()
	if _, err := sys.JoinMemberAt(2, ap.ID()); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if len(leader.owedUp) != 0 {
		t.Errorf("the leader still owes %v after the parent came back", leader.owedUp)
	}
	if got := len(sys.GlobalMembership()); got != 2 {
		t.Errorf("the top ring holds %v, want mh-1 and mh-2", sys.GlobalMembership())
	}
}

// TestPassAckNamesAdopter: every pass is acknowledged with the round it
// carried, and a round adopted after its holder died is a new round: the
// next acknowledgement names the adopter.
func TestPassAckNamesAdopter(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	p, h := ringPair(sys)
	sys.CrashNE(h)

	tok := freshToken(sys.cfg.GID, p.ringID, h, 1, nil, token.FromLocal, ring.ID{})
	tok.Route = p.Roster()
	var acks []wire.PassAck
	traceSends(sys, func(m runtime.Message) {
		if a, ok := m.Body.(*wire.PassAck); ok {
			acks = append(acks, *a)
		}
	})
	p.passToken(tok)
	sys.Run()

	if p.Repairs() != 1 {
		t.Fatalf("%d repairs at %s, want the give-up on %s", p.Repairs(), p.ID(), h)
	}
	if len(acks) == 0 || acks[0] != (wire.PassAck{Holder: p.ID(), Round: 1}) {
		t.Fatalf("acknowledgements after the adoption: %v, want the first to name the adopter %s", acks, p.ID())
	}
}

// TestNotifiedRoundAcksForwarder: a ring that runs a notified batch
// acknowledges the entity that forwarded it, never the mobile host the
// batch's changes reply to, also on the three rare paths where the
// round does not simply come full circle at its holder. At h=2 r=3 the
// join's bottom-ring leader notifies its parent, whose top-ring round
// then loses a ring-mate, loses its token with a crashed carrier, or
// loses its holder; in each case every Holder-Acknowledgement a top-ring
// entity sends goes to the bottom-ring leader.
func TestNotifiedRoundAcksForwarder(t *testing.T) {
	cases := []struct {
		name      string
		heartbeat time.Duration
		deadFirst bool // the entity two after the holder is dead before the join
		// crash is called on every message the simulator delivers; it
		// crashes the scenario's entity at the scenario's moment. top is
		// the top-ring roster from the notified holder on.
		crash func(sys *System, m runtime.Message, top []ids.NodeID)
		// happened checks that the scenario's path ran.
		happened func(sys *System, top []ids.NodeID, acksFrom map[ids.NodeID]int) string
	}{
		{
			// A ring-mate crashes while the token is on its way to it:
			// the round repairs around it and re-circulates its batch.
			name: "repaired",
			crash: func(sys *System, m runtime.Message, top []ids.NodeID) {
				if b, ok := m.Body.(wire.TokenMsg); ok && m.To == top[1] && b.Tok.Holder == top[0] && len(b.Tok.Ops) > 0 {
					sys.CrashNE(top[2])
				}
			},
			happened: func(sys *System, top []ids.NodeID, acksFrom map[ids.NodeID]int) string {
				if sys.Node(top[1]).Repairs() == 0 || acksFrom[top[0]] < 2 {
					return fmt.Sprintf("%d repairs at %s and %d acknowledgements from %s, want a repair and the round and its re-circulation",
						sys.Node(top[1]).Repairs(), top[1], acksFrom[top[0]], top[0])
				}
				return ""
			},
		},
		{
			// The carrier dies holding the token after it acknowledged
			// the pass, with the entity after it already dead: the
			// watchdog requeues the holder's open round.
			name:      "requeued",
			heartbeat: 200 * time.Millisecond,
			deadFirst: true,
			crash: func(sys *System, m runtime.Message, top []ids.NodeID) {
				if _, ok := m.Body.(*wire.PassAck); ok && m.From == top[1] && m.To == top[0] && len(sys.Node(top[0]).openRound) > 0 {
					sys.CrashNE(top[1])
				}
			},
			happened: func(sys *System, top []ids.NodeID, acksFrom map[ids.NodeID]int) string {
				if !sys.tr.Crashed(top[1]) || acksFrom[top[0]] == 0 {
					return fmt.Sprintf("carrier %s crashed %v, %d acknowledgements from the holder %s; want the requeued round acknowledged",
						top[1], sys.tr.Crashed(top[1]), acksFrom[top[0]], top[0])
				}
				return ""
			},
		},
		{
			// The holder dies after its pass was acknowledged: the last
			// entity's pass back to it gives up, and that entity adopts
			// and completes the round.
			name: "adopted",
			crash: func(sys *System, m runtime.Message, top []ids.NodeID) {
				if _, ok := m.Body.(*wire.PassAck); ok && m.From == top[1] && m.To == top[0] && len(sys.Node(top[0]).openRound) > 0 {
					sys.CrashNE(top[0])
				}
			},
			happened: func(sys *System, top []ids.NodeID, acksFrom map[ids.NodeID]int) string {
				if acksFrom[top[2]] == 0 || acksFrom[top[0]] != 0 {
					return fmt.Sprintf("%d acknowledgements from the adopter %s and %d from the dead holder %s, want the adopter's only",
						acksFrom[top[2]], top[2], acksFrom[top[0]], top[0])
				}
				return ""
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := quietConfig(2, 3)
			cfg.HeartbeatInterval = c.heartbeat
			sys := NewSystem(cfg)
			ap := sys.Node(sys.APs()[1])
			leader := sys.Node(ap.Leader())
			holder := sys.Node(leader.Parent())
			top := holder.itinerary()
			if len(top) != 3 {
				t.Fatalf("top ring from %s is %v, want three entities", holder.ID(), top)
			}
			if c.deadFirst {
				sys.CrashNE(top[2])
			}
			acksFrom := map[ids.NodeID]int{}
			var wrong []runtime.Message
			sys.Runtime().(*simnet.SimRuntime).Net().SetTrace(func(m runtime.Message, outcome string) {
				if outcome == "delivered" {
					c.crash(sys, m, top)
				}
				if _, ok := m.Body.(*wire.HolderAck); ok && slices.Contains(top, m.From) && outcome != "crashed-src" {
					acksFrom[m.From]++
					if m.To != leader.ID() {
						wrong = append(wrong, m)
					}
				}
			})
			if _, err := sys.JoinMemberAt(1, ap.ID()); err != nil {
				t.Fatal(err)
			}
			sys.RunFor(10 * time.Second)

			for _, m := range wrong {
				t.Errorf("%s acknowledged %s, want only the forwarder %s", m.From, m.To, leader.ID())
			}
			if msg := c.happened(sys, top, acksFrom); msg != "" {
				t.Error(msg)
			}
			for _, m := range top {
				if n := sys.Node(m); !sys.tr.Crashed(m) && !n.RingMembers().Contains(1) {
					t.Errorf("top-ring entity %s does not list the join", m)
				}
			}
		})
	}
}

// TestParkedRoundsAllocateNothing: a ring pops its parked rounds from the
// front of one array and zeroes each slot it vacates, so once its parked
// rounds were dispatched it parks again into capacity, and no slot keeps
// a dispatched batch alive.
func TestParkedRoundsAllocateNothing(t *testing.T) {
	sys := NewSystem(quietConfig(1, 5))
	ap := sys.APs()[0]
	n := sys.nodes[ap]
	rs := n.ring
	sys.markRingBusy(rs)
	for g := ids.GUID(1); g <= 3; g++ {
		batch := mq.Batch{{Op: mq.OpMemberJoin, Member: ids.MemberInfo{GID: sys.cfg.GID, GUID: g, AP: ap}, Origin: ap}}
		sys.requestRoundWithBatch(n, token.FromLocal, ring.ID{}, batch, ids.NoNode)
	}
	rs.busy = false
	sys.dispatchPending(rs)
	sys.Run()
	if got := len(sys.GlobalMembership()); got != 3 {
		t.Fatalf("membership = %d after the three parked rounds, want 3", got)
	}
	if len(rs.pending) != 0 || cap(rs.pending) < 3 {
		t.Fatalf("after dispatch the ring parks in len %d, cap %d; want 0 and its array of 3 or more", len(rs.pending), cap(rs.pending))
	}
	for i, p := range rs.pending[:cap(rs.pending)] {
		if p.batch != nil {
			t.Errorf("slot %d still holds the dispatched batch %v", i, p.batch)
		}
	}
	// Local requests whose queue is empty are parked, then skipped.
	allocs := testing.AllocsPerRun(100, func() {
		rs.busy = true
		for range 3 {
			sys.requestRound(n, token.FromLocal, ring.ID{})
		}
		rs.busy = false
		sys.dispatchPending(rs)
	})
	if allocs != 0 {
		t.Errorf("parking and dispatching three rounds allocates %.1f objects", allocs)
	}
}
