package core

import (
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mq"
	"github.com/rgbproto/rgb/internal/ring"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/simnet"
	"github.com/rgbproto/rgb/internal/token"
	"github.com/rgbproto/rgb/internal/wire"
)

// Every test of this package runs with the recycle guard on: a body
// handed back is poisoned, and one handed back twice panics.
func init() { recycleGuard = true }

// freshToken returns a new token of the given round, owned by the test.
func freshToken(gid ids.GroupID, ringID ring.ID, holder ids.NodeID, round uint64, ops mq.Batch, dir token.Direction, source ring.ID) *token.Token {
	t := new(token.Token)
	t.Reset(gid, ringID, holder, round, ops, dir, source)
	return t
}

// TestRecycleGuard: under the guard a handed-back body reads as no
// round of any ring, a body handed back twice panics, and take hands
// out what put kept, newest first.
func TestRecycleGuard(t *testing.T) {
	free := newBodies(1)
	tok := freshToken(ids.NewGroupID(1), ring.ID{Tier: ids.TierAP}, ids.MakeNodeID(ids.TierAP, 0), 3,
		mq.Batch{{Op: mq.OpMemberJoin}}, token.FromLocal, ring.ID{})
	tok.Route = []ids.NodeID{tok.Holder}
	free.recycle(wire.TokenMsg{Tok: tok})
	if tok.Ring != poisonRing || tok.Holder != poisonNode || tok.Round != poisonRound || tok.Ops != nil || tok.Route != nil {
		t.Fatalf("a handed-back token was not poisoned: %+v", tok)
	}
	n := &wire.Notify{Batch: mq.Batch{{Op: mq.OpMemberJoin}}, Up: true, Seq: 4}
	free.recycle(n)
	if n.Batch != nil || n.Seq != poisonRound || n.From != poisonRing {
		t.Fatalf("a handed-back notification was not poisoned: %+v", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a notification handed back twice did not panic")
			}
		}()
		free.recycle(n)
	}()
	if free.notifies.take() != n || free.tokens.take() != tok {
		t.Error("take did not hand out the bodies put kept")
	}
	for range bodyFreeMin + 3 {
		free.passAcks.put(new(wire.PassAck))
	}
	if len(free.passAcks.free) != bodyFreeMin {
		t.Errorf("a free list of a one-ring System keeps %d bodies, bound %d", len(free.passAcks.free), bodyFreeMin)
	}
}

// faultedScriptMembers is where the faulted trace-digest script ends at
// each seed: the membership the build with value payloads reached. The
// script's own end is GUIDs 7–20 and 100; a corrupted frame that still
// decodes is taken as valid (a member record with a flipped GUID or
// version, a leave that never lands), so most seeds end elsewhere.
var faultedScriptMembers = map[uint64][]ids.GUID{
	40: {7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 100},
	41: {2, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 100, 61643019899633678},
	42: {1, 2, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 65},
	43: {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
	44: {6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 100},
}

// TestFaultedTraceScriptWithGuard runs the trace-digest script
// (goldenScenarioDigest) with the FaultTransport's duplicate, reorder,
// corrupt and misroute faults each at 1 % beside 1 % loss, the recycle
// guard on. Every duplicated, held, re-decoded and misrouted body has
// one owner, so none is handed back twice or read after it was, and
// the run ends on the membership the value payloads ended on.
func TestFaultedTraceScriptWithGuard(t *testing.T) {
	for _, seed := range slices.Sorted(maps.Keys(faultedScriptMembers)) {
		want := faultedScriptMembers[seed]
		cfg := DefaultConfig(3, 5)
		cfg.Seed = seed
		cfg.Latency = runtime.DefaultTierLatency()
		sim := simnet.NewSimRuntime(cfg.Latency, cfg.Seed)
		sim.Net().SetLoss(0.01)
		rt := runtime.WithFaultInjection(sim, runtime.FaultPlan{Seed: seed, Duplicate: 0.01, Reorder: 0.01, Corrupt: 0.01, Misroute: 0.01})
		sys := NewSystemOn(cfg, rt)

		aps := sys.APs()
		for i := 0; i < 20; i++ {
			sys.JoinMemberAt(ids.GUID(i+1), aps[(i*7)%len(aps)])
		}
		sys.Run()
		for i := 0; i < 10; i++ {
			sys.HandoffMember(ids.GUID(i+1), aps[(i*11+3)%len(aps)])
		}
		sys.Run()
		for i := 0; i < 5; i++ {
			sys.LeaveMember(ids.GUID(i + 1))
		}
		sys.FailMember(ids.GUID(6))
		sys.Run()
		victim := sys.Node(aps[0]).Roster()[2]
		sys.CrashNE(victim)
		sys.JoinMemberAt(ids.GUID(100), aps[0])
		sys.Run()
		sys.RestoreNE(victim)
		sys.Run()
		sys.RunFor(5 * time.Second)

		fs := rt.Transport().(*runtime.FaultTransport).FaultStats()
		if fs.Duplicated == 0 || fs.Reordered == 0 || fs.Corrupted == 0 || fs.Misrouted == 0 {
			t.Errorf("seed %d: a fault never fired: %+v", seed, fs)
		}
		var got []ids.GUID
		for _, m := range sys.GlobalMembership() {
			got = append(got, m.GUID)
		}
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Errorf("seed %d: the script ended on %v, want %v", seed, got, want)
		}
	}
}

// roundCycleAllocBudget is what a warm join, handoff and leave of one
// member may allocate together at h=4 r=5 under DisseminateFull: 468
// rounds and about 6 000 messages, whose bodies all come off the free
// lists (2 152 allocations with a token, notification and
// acknowledgement allocated per send). What is left is the three
// drained MQ batches the access proxies' rounds take as their Ops, the
// mobile host's three boxed change submissions and its Member record
// at the join, and, in three cycles of four, the Contributors slice a
// holder rebuilds when its forwarder changes (forwardedBy).
const roundCycleAllocBudget = 8

// TestRoundCycleAllocBudget locks the claim that a ring round allocates
// no message body: join → handoff → leave, each followed by Run, on a
// warm System at h=4 r=5.
func TestRoundCycleAllocBudget(t *testing.T) {
	cfg := quietConfig(4, 5)
	cfg.Dissemination = DisseminateFull
	sys := NewSystem(cfg)
	aps := sys.APs()
	next := 0
	cycle := func() {
		// Four members take turns, each joining at its own access proxy
		// and handing off to another subtree.
		k := next % 4
		g := ids.GUID(k + 1)
		if _, err := sys.JoinMemberAt(g, aps[k*31]); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if !sys.top[0].RingMembers().Contains(g) {
			t.Fatalf("the join of %s did not reach the top ring", g)
		}
		if err := sys.HandoffMember(g, aps[k*31+57]); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		if err := sys.LeaveMember(g); err != nil {
			t.Fatal(err)
		}
		sys.Run()
		next++
	}
	for range 64 {
		cycle()
	}
	allocs := testing.AllocsPerRun(50, cycle)
	t.Logf("join, handoff and leave at h=4 r=5: %.2f allocs", allocs)
	if allocs > roundCycleAllocBudget {
		t.Errorf("a join, handoff and leave at h=4 r=5 allocate %.1f objects, budget %d", allocs, roundCycleAllocBudget)
	}
	if got := len(sys.GlobalMembership()); got != 0 {
		t.Fatalf("%d members left after the cycles, want none", got)
	}
}
