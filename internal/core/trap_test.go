package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/runtime"
	"github.com/rgbproto/rgb/internal/workload"
)

// trap2Seeds is how many seeds the Trap 2 tests replay: at 1 % loss, a
// token that cancels the resend of another's pass splits the top ring on
// about half of them.
const trap2Seeds = 50

// trap2Deployment is three Systems of an h=2 r=3 hierarchy at 1 % loss.
func trap2Deployment(seed uint64) *procs {
	cfg := DefaultConfig(2, 3)
	cfg.Seed = seed
	cfg.Loss = 0.01
	return newProcs(cfg, 3)
}

// playJoins joins 60 members 1 ms apart, the i-th at an access proxy of
// slot enter(i) (rotating through that slot's proxies), so it enters
// through that process, and runs the deployment to quiescence.
func playJoins(p *procs, enter func(i int) int) {
	var tr workload.Trace
	for i := 0; i < 60; i++ {
		aps := p.apsOf(enter(i))
		tr = append(tr, workload.Event{
			At: time.Duration(i) * time.Millisecond, Kind: workload.EvJoin,
			GUID: ids.GUID(i + 1), AP: aps[(i/len(p.sys))%len(aps)],
		})
	}
	p.applyTrace(tr)
	p.rt.Run()
}

// trap2 requires every seed's top-ring views to agree at quiescence.
func trap2(t *testing.T, enter func(i int) int) {
	var split []uint64
	for seed := uint64(1); seed <= trap2Seeds; seed++ {
		p := trap2Deployment(seed)
		playJoins(p, enter)
		if p.viewsAgree() {
			continue
		}
		if len(split) == 0 {
			logSplit(t, seed, p)
		}
		split = append(split, seed)
	}
	if len(split) > 0 {
		t.Fatalf("top-ring views disagree at quiescence on %d of %d seeds: %v", len(split), trap2Seeds, split)
	}
}

// logSplit logs, per System, the members some other System's top-ring
// view holds and its own lacks.
func logSplit(t *testing.T, seed uint64, p *procs) {
	held := make([]map[ids.GUID]bool, len(p.sys))
	all := map[ids.GUID]bool{}
	for slot, s := range p.sys {
		held[slot] = map[ids.GUID]bool{}
		for _, m := range s.GlobalMembership() {
			held[slot][m.GUID] = true
			all[m.GUID] = true
		}
	}
	for slot := range p.sys {
		var lacks []ids.GUID
		for g := range all {
			if !held[slot][g] {
				lacks = append(lacks, g)
			}
		}
		sort.Slice(lacks, func(i, j int) bool { return lacks[i] < lacks[j] })
		t.Logf("seed %d slot %d: %d members, lacks %v", seed, slot, len(held[slot]), lacks)
	}
}

// TestTrap2ChangesThroughEveryProcess is Trap 2: each process brokers
// "one round per ring" for itself only, so changes entering through
// different processes run concurrent rounds in the top ring. A node has
// one pass, so a token that reaches it while its pass is unacknowledged
// must wait its turn (passToken): one that replaced the pass would cancel
// its resend, a lost pass would take its round and batch with it, and
// under loss the top-ring entities would end with different views.
func TestTrap2ChangesThroughEveryProcess(t *testing.T) {
	trap2(t, func(i int) int { return i % 3 })
}

// TestTrap2ChangesThroughProcessZero is Trap 2's control: the same
// script entering through process 0 only.
func TestTrap2ChangesThroughProcessZero(t *testing.T) {
	trap2(t, func(int) int { return 0 })
}

// procsTraceDigest hashes the full (time, seq, message, outcome) trace
// of Trap 2's control at one seed.
func procsTraceDigest(seed uint64) string {
	p := trap2Deployment(seed)
	h := sha256.New()
	k := p.rt.Kernel()
	p.rt.Net().SetTrace(func(msg runtime.Message, outcome string) {
		fmt.Fprintf(h, "%d %d %s %s %s %s\n", int64(k.Now()), k.Executed(), msg.From, msg.To, msg.Kind, outcome)
	})
	playJoins(p, func(int) int { return 0 })
	return hex.EncodeToString(h.Sum(nil))
}

// TestProcsTraceRepeatable: N Systems on one simulator are as
// bit-reproducible as one; no state leaks between runs or depends on
// map order.
func TestProcsTraceRepeatable(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		if a, b := procsTraceDigest(seed), procsTraceDigest(seed); a != b {
			t.Fatalf("seed %d: two runs traced %s and %s", seed, a, b)
		}
	}
}

// apAt names the access proxy of the given ordinal.
func apAt(i int) ids.NodeID { return ids.MakeNodeID(ids.TierAP, i) }

// TestTrapTwoChangesOfOneMemberInFlight: a join and a handoff of one
// member, 2 ms apart, under the default DisseminateFull. The join's
// down-notification reaches the bottom ring that serves the member's new
// access proxy after that ring's own handoff round. The join is the
// older of the member's two records there, so it changes nothing, and
// the ring keeps listing the member at its new access proxy.
func TestTrapTwoChangesOfOneMemberInFlight(t *testing.T) {
	sys := NewSystem(quietConfig(3, 3))
	if _, err := sys.JoinMemberAt(1, apAt(0)); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(2 * time.Millisecond)
	if err := sys.HandoffMember(1, apAt(8)); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	requireRingListsMatchCoverage(t, sys)
}

// TestTrapPathOnlyHandoffLeavesOldRing is B3: under DisseminatePathOnly
// a handoff runs only on the path from the new access proxy up, so the
// old bottom ring keeps the member at its old access proxy, through the
// member's leave and for good. A BMS query from there still answers it.
func TestTrapPathOnlyHandoffLeavesOldRing(t *testing.T) {
	t.Skip("B3: under path-only dissemination a handoff never reaches the old bottom ring (ROADMAP item 3)")
	cfg := quietConfig(2, 3)
	cfg.Dissemination = DisseminatePathOnly
	sys := NewSystem(cfg)
	for g := ids.GUID(1); g <= 2; g++ {
		if _, err := sys.JoinMemberAt(g, apAt(int(g)-1)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run()
	if err := sys.HandoffMember(1, apAt(4)); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	if err := sys.LeaveMember(1); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	bms, err := sys.RunQuery(apAt(0), QueryScheme{Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("BMS from %s answers %v", apAt(0), bms.Members)
	requireRingListsMatchCoverage(t, sys)
}

// TestTrapHandoffBeforeOlderJoin is the one order the version rule does
// not fix, because a handoff out of a ring's coverage leaves no
// tombstone. A member joins at AP a, whose ring's round is held up by a
// crashed entity before it reaches the leader, and 5 ms later hands off
// to an AP in another subtree. The handoff climbs to the top ring and
// comes down into a's parent ring first; that ring does not list the
// member yet and does not cover the new AP, so it records nothing. The
// join then arrives and lists the member at a, where it no longer is.
// Delete the skip to see it.
func TestTrapHandoffBeforeOlderJoin(t *testing.T) {
	t.Skip("a handoff out of coverage leaves no tombstone; see ROADMAP item 3c")
	sys := NewSystem(quietConfig(3, 3))
	bottom := sys.hier.Level(2)[0].Nodes()
	a, stall := bottom[1], bottom[2] // the round from a reaches the leader after stall
	far := sys.hier.RingOf(sys.hier.ParentOf(sys.hier.RingOf(a).ID()))
	var b ids.NodeID
	for _, ap := range sys.APs() {
		if !sys.hier.Covers(far.ID(), ap) {
			b = ap
			break
		}
	}
	sys.CrashNE(stall)
	if _, err := sys.JoinMemberAt(7, a); err != nil {
		t.Fatal(err)
	}
	sys.RunFor(5 * time.Millisecond)
	if err := sys.HandoffMember(7, b); err != nil {
		t.Fatal(err)
	}
	sys.Run()
	requireRingListsMatchCoverage(t, sys)
}

// TestTrapNotifyGiveUpDropsBatch is B1: a notification that exhausts its
// retries must not drop its batch, already acknowledged to its
// originators. BR-1 is down while mh-1 joins at AP-3 and comes back
// before mh-2 joins there. Before the fix the top ring ended holding
// only mh-2 under DisseminateFull, though AP-3's ring lists both, and
// nothing under DisseminatePathOnly, where the sender stopped notifying
// its parent for good. Now the given-up batch is owed to the link and
// mh-2's round carries it.
func TestTrapNotifyGiveUpDropsBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode DisseminationMode
	}{
		{"full", DisseminateFull},
		{"path-only", DisseminatePathOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quietConfig(2, 3)
			cfg.Dissemination = tc.mode
			sys := NewSystem(cfg)
			br := ids.MakeNodeID(ids.TierBR, 1)
			sys.CrashNE(br)
			if _, err := sys.JoinMemberAt(1, apAt(3)); err != nil {
				t.Fatal(err)
			}
			sys.RunFor(10 * time.Second)
			sys.RestoreNE(br)
			sys.RunFor(10 * time.Second)
			if _, err := sys.JoinMemberAt(2, apAt(3)); err != nil {
				t.Fatal(err)
			}
			sys.RunFor(time.Minute)

			top := map[ids.GUID]bool{}
			for _, m := range sys.GlobalMembership() {
				top[m.GUID] = true
			}
			ap := sys.Node(apAt(3))
			leader := sys.Node(ap.Leader())
			ap.RingMembers().Each(func(m ids.MemberInfo) {
				if !top[m.GUID] {
					t.Errorf("%s's ring lists %s, the top ring holds %v; the ring leader owes %v",
						apAt(3), m.GUID, sys.GlobalMembership(), leader.owedUp)
				}
			})
		})
	}
}
