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
func init() { wire.RecycleGuard.Store(true) }

// freshToken returns a new token of the given round, owned by the test.
func freshToken(ringID ring.ID, holder ids.NodeID, round uint64, ops mq.Batch, dir token.Direction, source ring.ID) *token.Token {
	t := new(token.Token)
	t.Reset(ringID, holder, round, ops, dir, source)
	return t
}

// faultedScriptMembers is where the faulted trace-digest script ends at
// each seed. The script's own end is GUIDs 7–20 and 100; a corrupted
// frame that still decodes is taken as valid (a member record with a
// flipped GUID or version, a leave that never lands), so most seeds end
// elsewhere. A corrupted token whose holder is not on its route is
// dropped unacknowledged and its pass resent intact. The corrupt fault
// picks the byte it flips by the frame's length, so wire version 6's
// shorter frames moved the ends of seeds 41–44; seed 41 still ends
// holding a GUID nobody joined (ROADMAP item 35).
var faultedScriptMembers = map[uint64][]ids.GUID{
	40: {7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 100},
	41: {7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 100, 3674210318},
	42: {3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 100},
	43: {7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 100},
	44: {7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 100},
}

// TestFaultedTraceScriptWithGuard runs the trace-digest script
// (goldenScenarioDigest) with the FaultTransport's duplicate, reorder,
// corrupt and misroute faults each at 1 % beside 1 % loss, the recycle
// guard on. Every duplicated, held, re-decoded and misrouted body has
// one owner, so none is handed back twice or read after it was, and
// the run ends on the membership pinned for its seed.
func TestFaultedTraceScriptWithGuard(t *testing.T) {
	for _, seed := range slices.Sorted(maps.Keys(faultedScriptMembers)) {
		want := faultedScriptMembers[seed]
		got, fs := runFaultedScript(seed)
		if fs.Duplicated == 0 || fs.Reordered == 0 || fs.Corrupted == 0 || fs.Misrouted == 0 {
			t.Errorf("seed %d: a fault never fired: %+v", seed, fs)
		}
		if !slices.Equal(got, want) {
			t.Errorf("seed %d: the script ended on %v, want %v", seed, got, want)
		}
	}
}

// TestFaultedTraceScriptSeedSweep: the faulted script finishes at every
// seed from 40 to 60. At seed 56 a corrupted token named a holder that
// was not on its route, so no entity ever closed its round and it went
// round its ring for good; such a token is now dropped unacknowledged,
// like one of another ring. The sweep takes well under a second.
func TestFaultedTraceScriptSeedSweep(t *testing.T) {
	const bound = time.Minute
	done := make(chan uint64)
	go func() {
		for seed := uint64(40); seed <= 60; seed++ {
			runFaultedScript(seed)
			done <- seed
		}
		close(done)
	}()
	timeout := time.After(bound)
	last := uint64(39)
	for {
		select {
		case seed, ok := <-done:
			if !ok {
				return
			}
			last = seed
		case <-timeout:
			t.Fatalf("the faulted script did not finish seed %d within %v of the sweep's start", last+1, bound)
		}
	}
}

// runFaultedScript runs the trace-digest script under every
// FaultTransport fault at the given seed and returns the GUIDs of its
// end membership, sorted, and the faults that fired.
func runFaultedScript(seed uint64) ([]ids.GUID, runtime.FaultStats) {
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

	var got []ids.GUID
	for _, m := range sys.GlobalMembership() {
		got = append(got, m.GUID)
	}
	slices.Sort(got)
	return got, rt.Transport().(*runtime.FaultTransport).FaultStats()
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
