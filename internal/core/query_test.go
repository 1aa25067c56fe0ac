package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/ring"
)

// mustQuery runs a query that must not fail.
func mustQuery(t *testing.T, sys *System, entry ids.NodeID, scheme QueryScheme) QueryResult {
	t.Helper()
	res, err := sys.RunQuery(entry, scheme)
	if err != nil {
		t.Fatalf("RunQuery: %v", err)
	}
	return res
}

// populate joins n members across the APs deterministically and runs
// to quiescence.
func populate(t *testing.T, sys *System, n int) {
	t.Helper()
	aps := sys.APs()
	for g := 1; g <= n; g++ {
		sys.JoinMemberAt(ids.GUID(g), aps[(g*3)%len(aps)])
	}
	sys.Run()
}

func TestQueryTMSComplete(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	populate(t, sys, 25)
	res := mustQuery(t, sys, sys.APs()[0], TMS())
	if len(res.Members) != 25 {
		t.Fatalf("TMS answered %d members, want 25", len(res.Members))
	}
	missing, extra := sys.VerifyQueryAnswer(res)
	if missing != 0 || extra != 0 {
		t.Fatalf("TMS wrong: missing=%d extra=%d", missing, extra)
	}
	if res.Replies != 1 {
		t.Fatalf("TMS replies = %d, want 1", res.Replies)
	}
}

func TestQueryBMSComplete(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	populate(t, sys, 25)
	res := mustQuery(t, sys, sys.APs()[7], BMS(3))
	missing, extra := sys.VerifyQueryAnswer(res)
	if missing != 0 || extra != 0 {
		t.Fatalf("BMS wrong: missing=%d extra=%d", missing, extra)
	}
	// One reply per bottommost ring: r^(h-1) = 25.
	if res.Replies != 25 {
		t.Fatalf("BMS replies = %d, want 25", res.Replies)
	}
}

func TestQueryIMSComplete(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	populate(t, sys, 25)
	res := mustQuery(t, sys, sys.APs()[3], IMS(1))
	missing, extra := sys.VerifyQueryAnswer(res)
	if missing != 0 || extra != 0 {
		t.Fatalf("IMS wrong: missing=%d extra=%d", missing, extra)
	}
	if res.Replies != 5 {
		t.Fatalf("IMS(1) replies = %d, want 5", res.Replies)
	}
}

// TestQueryCostOrdering is the §4.4 claim: "The Membership-Query
// algorithm with the TMS scheme is more efficient than that with the
// BMS scheme with regard to the requesting application".
func TestQueryCostOrdering(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	populate(t, sys, 25)
	tms := mustQuery(t, sys, sys.APs()[0], TMS())
	ims := mustQuery(t, sys, sys.APs()[0], IMS(1))
	bms := mustQuery(t, sys, sys.APs()[0], BMS(3))
	if !(tms.Messages < ims.Messages && ims.Messages < bms.Messages) {
		t.Errorf("message cost should order TMS < IMS < BMS: %d, %d, %d",
			tms.Messages, ims.Messages, bms.Messages)
	}
	if tms.Latency > bms.Latency {
		t.Errorf("TMS latency %v should not exceed BMS latency %v", tms.Latency, bms.Latency)
	}
}

func TestQueryCostScalesWithLevelWidth(t *testing.T) {
	sys := NewSystem(quietConfig(3, 5))
	populate(t, sys, 10)
	entry := sys.APs()[0]
	if got := mustQuery(t, sys, entry, TMS()).Replies; got != 1 {
		t.Errorf("level 0 replies = %d, want 1", got)
	}
	if got := mustQuery(t, sys, entry, IMS(2)).Replies; got != 25 {
		t.Errorf("level 2 replies = %d, want 25", got)
	}
}

func TestQueryFromEveryEntryPoint(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	populate(t, sys, 10)
	for _, ap := range sys.APs() {
		res := mustQuery(t, sys, ap, TMS())
		if missing, extra := sys.VerifyQueryAnswer(res); missing != 0 || extra != 0 {
			t.Fatalf("entry %s: missing=%d extra=%d", ap, missing, extra)
		}
	}
}

func TestQueryReflectsChurn(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	populate(t, sys, 10)
	sys.LeaveMember(ids.GUID(4))
	sys.LeaveMember(ids.GUID(7))
	sys.Run()
	res := mustQuery(t, sys, sys.APs()[0], TMS())
	if len(res.Members) != 8 {
		t.Fatalf("after leaves: %d members, want 8", len(res.Members))
	}
	for _, m := range res.Members {
		if m.GUID == 4 || m.GUID == 7 {
			t.Fatalf("departed member %s still in answer", m.GUID)
		}
	}
}

func TestQueryLevelValidation(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	if _, err := sys.RunQuery(sys.APs()[0], IMS(5)); !errors.Is(err, ErrQueryLevel) {
		t.Fatalf("err = %v, want ErrQueryLevel", err)
	}
}

func TestQuerySchemeNames(t *testing.T) {
	if TMS().Level != 0 || BMS(4).Level != 3 || IMS(2).Level != 2 {
		t.Error("scheme constructors wrong")
	}
	if TMS().String() != "level-0" {
		t.Errorf("String = %q", TMS().String())
	}
}

func TestQueryResultGUIDs(t *testing.T) {
	sys := NewSystem(quietConfig(2, 5))
	populate(t, sys, 3)
	res := mustQuery(t, sys, sys.APs()[0], TMS())
	var guids []ids.GUID
	for _, m := range res.Members {
		guids = append(guids, m.GUID)
	}
	if slices.Sort(guids); !slices.Equal(guids, []ids.GUID{1, 2, 3}) {
		t.Fatalf("GUIDs = %v, want 1, 2 and 3", guids)
	}
}

// TestQueryAppIDStaysInBlock: the networked runtime routes a reply to
// process ordinal/ids.MHBlockSize, so a query app's ordinal must
// stay inside its own process's block however many queries have run.
// Unwrapped, query 15 728 640 of a process landed in the next block and
// every later query timed out.
func TestQueryAppIDStaysInBlock(t *testing.T) {
	cfg := quietConfig(2, 3)
	cfg.mhBase = 2 * ids.MHBlockSize
	sys := NewSystem(cfg)
	populate(t, sys, 6)
	first := sys.queryAppID().Ordinal()
	for _, seq := range []uint64{1, ids.MHBlockSize - queryOrdinalBase - 2, 3*ids.MHBlockSize + 5} {
		sys.querySeq = seq
		for i := 0; i < 4; i++ {
			res := mustQuery(t, sys, sys.APs()[0], TMS())
			if len(res.Members) != 6 {
				t.Fatalf("query %d answered %d members, want 6", sys.querySeq, len(res.Members))
			}
			ord := sys.queryAppID().Ordinal()
			if ord/ids.MHBlockSize != 2 || ord%ids.MHBlockSize < queryOrdinalBase {
				t.Fatalf("query %d: app ordinal %#x is outside the query range of block 2", sys.querySeq, ord)
			}
		}
	}
	// The first 15 M ids are the ones the parent minted: the digests hold.
	sys.querySeq = 7
	if got := sys.queryAppID().Ordinal(); got != first+7 {
		t.Fatalf("query 7 ordinal = %#x, want %#x", got, first+7)
	}
}

// TestQueryAnswerOrderOverlappingRings: mid-handoff two bottom rings
// list the same member, each with its own record. The answer keeps
// ids.MemberList's contract, which the golden digests pin: a member
// stands where it was first inserted and carries the later reply's
// record.
func TestQueryAnswerOrderOverlappingRings(t *testing.T) {
	sys := NewSystem(quietConfig(3, 3))
	populate(t, sys, 27)
	x, _ := sys.Member(ids.GUID(14)) // second of three in its ring
	oldRing := sys.Node(x.AP).ringID
	moved := x.MemberInfo
	for _, rg := range sys.hier.Level(2) {
		if rg.ID() != oldRing {
			moved.AP = rg.Leader()
			for _, id := range rg.Nodes() {
				sys.Node(id).ringMems.Put(moved)
			}
			break
		}
	}

	res := mustQuery(t, sys, sys.APs()[4], BMS(3))
	if res.Replies != 9 || len(res.Members) != 27 {
		t.Fatalf("answer: %d members from %d replies, want 27 from 9", len(res.Members), res.Replies)
	}
	// The rings in the order they answered, read off the members only
	// one ring lists; then the same replies through the reference.
	home := map[ids.GUID]*Node{}
	for _, rg := range sys.hier.Level(2) {
		leader := sys.Node(rg.Leader())
		leader.ringMems.Each(func(m ids.MemberInfo) {
			if m.GUID != x.GUID {
				home[m.GUID] = leader
			}
		})
	}
	var want ids.MemberList
	seen := map[ring.ID]bool{}
	for _, m := range res.Members {
		if n := home[m.GUID]; n != nil && !seen[n.ringID] {
			seen[n.ringID] = true
			n.ringMems.Each(want.Put)
		}
	}
	if !reflect.DeepEqual(res.Members, want.Snapshot()) {
		t.Fatalf("answer differs from MemberList over the same replies:\n got %v\nwant %v", res.Members, want.Snapshot())
	}
	at := -1
	for i, m := range res.Members {
		if m.GUID == x.GUID {
			at = i
		}
	}
	// x is neither ring's first member, so its predecessor names the
	// ring that answered first.
	first, later := home[res.Members[at-1].GUID].ringID, x.AP
	if first == oldRing {
		later = moved.AP
	}
	if res.Members[at].AP != later {
		t.Fatalf("%v stands in %v's block with record %v, want the later reply's (AP %v)", x.GUID, first, res.Members[at], later)
	}
}

// TestQueryCollectorReused: consecutive queries of one System share one
// collector, and what an earlier, wider query left in it, in its
// one-ring list or its merged MemberList, never shows in a later answer.
func TestQueryCollectorReused(t *testing.T) {
	sys := NewSystem(quietConfig(3, 3))
	populate(t, sys, 27)
	schemes := []QueryScheme{BMS(3), TMS(), IMS(1)}
	var want [3][]ids.MemberInfo
	for round := 0; round < 3; round++ {
		for i, scheme := range schemes {
			res := mustQuery(t, sys, sys.APs()[2], scheme)
			if missing, extra := sys.VerifyQueryAnswer(res); missing != 0 || extra != 0 || len(res.Members) != 27 {
				t.Fatalf("round %d %v: %d members, missing=%d extra=%d", round, scheme, len(res.Members), missing, extra)
			}
			if round == 0 {
				want[i] = res.Members
			} else if !reflect.DeepEqual(res.Members, want[i]) {
				t.Fatalf("round %d %v: answer changed on a reused collector", round, scheme)
			}
		}
	}
	if len(sys.queryFree) != 1 {
		t.Fatalf("%d collectors after sequential queries, want 1", len(sys.queryFree))
	}
	idle := func() {
		t.Helper()
		if c := sys.queryFree[0]; len(c.members) != 0 || c.merged.Len() != 0 || len(c.rings) != 0 {
			t.Fatalf("an idle collector holds %d members, %d merged, %d rings", len(c.members), c.merged.Len(), len(c.rings))
		}
	}
	idle()
	// A crashed bottom-ring leader leaves a query one reply short; the
	// partial answer must not leak into the next query either.
	dead := sys.hier.Level(2)[4].Leader()
	sys.CrashNE(dead)
	if res := mustQuery(t, sys, sys.APs()[2], BMS(3)); res.Replies >= 9 {
		t.Fatalf("query past a crashed leader got %d replies", res.Replies)
	}
	if res := mustQuery(t, sys, sys.APs()[2], TMS()); !reflect.DeepEqual(res.Members, want[1]) {
		t.Fatalf("TMS after a partial BMS: %d members, want the settled 27", len(res.Members))
	}
	idle()
}
