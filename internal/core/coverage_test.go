package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/workload"
)

// coverageMismatch reports, at quiescence, the live entities whose
// ListOfRingMembers is not exactly the top ring's members whose access
// proxy its ring covers, each at the same access proxy. It returns ""
// when every ring agrees with the group's view.
func coverageMismatch(sys *System) string {
	top := sys.GlobalMembership()
	var bad []string
	for _, id := range sys.hier.AllNodes() {
		n := sys.nodes[id]
		if n == nil || sys.tr.Crashed(id) {
			continue
		}
		var want []string
		at := map[ids.GUID]ids.NodeID{}
		for _, m := range top {
			if sys.hier.Covers(n.ringID, m.AP) {
				want = append(want, fmt.Sprintf("%s@%s", m.GUID, m.AP))
				at[m.GUID] = m.AP
			}
		}
		var got []string
		same := n.ringMems.Len() == len(want)
		n.ringMems.Each(func(m ids.MemberInfo) {
			got = append(got, fmt.Sprintf("%s@%s", m.GUID, m.AP))
			if ap, ok := at[m.GUID]; !ok || ap != m.AP {
				same = false
			}
		})
		if !same {
			bad = append(bad, fmt.Sprintf("%s lists %v, the top ring has %v under it", id, got, want))
		}
	}
	if len(bad) == 0 {
		return ""
	}
	return fmt.Sprintf("%d entities' ListOfRingMembers disagree with the top ring:\n%s",
		len(bad), strings.Join(bad[:min(len(bad), 3)], "\n"))
}

// requireRingListsMatchCoverage is TestRingListsMatchCoverage's check.
func requireRingListsMatchCoverage(t *testing.T, sys *System) {
	t.Helper()
	if msg := coverageMismatch(sys); msg != "" {
		t.Fatal(msg)
	}
}

// randomScript draws ops join/leave/fail/handoff operations over GUIDs
// 1..members, up to 3 ms apart, with at least gap between two operations
// of one member, so that each member has at most one change in flight.
func randomScript(seed uint64, aps []ids.NodeID, members, ops int, gap time.Duration) workload.Trace {
	rng := mathx.NewRNG(seed)
	live := make([]bool, members+1)
	last := make([]time.Duration, members+1)
	for g := range last {
		last[g] = -gap
	}
	var tr workload.Trace
	at := time.Duration(0)
	for len(tr) < ops {
		at += time.Duration(rng.Intn(3000)) * time.Microsecond
		g := 1 + rng.Intn(members)
		if at-last[g] < gap {
			continue
		}
		last[g] = at
		e := workload.Event{At: at, GUID: ids.GUID(g), AP: aps[rng.Intn(len(aps))]}
		switch {
		case !live[g]:
			e.Kind = workload.EvJoin
		case rng.Intn(4) == 0:
			e.Kind = workload.EvLeave
		case rng.Intn(3) == 0:
			e.Kind = workload.EvFail
		default:
			e.Kind = workload.EvHandoff
		}
		live[g] = e.Kind == workload.EvJoin || e.Kind == workload.EvHandoff
		tr = append(tr, e)
	}
	return tr
}

// TestRingListsMatchCoverage: under the default DisseminateFull every
// ring runs every change and keeps the members its subtree covers. After
// a random join/leave/fail/handoff script with at most one change per
// member in flight, every live entity's ListOfRingMembers at quiescence
// holds exactly the top ring's members under it, at the same access
// proxy, and the top ring holds exactly the script's live members.
func TestRingListsMatchCoverage(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := quietConfig(3, 3)
		cfg.Seed = seed
		sys := NewSystem(cfg)
		tr := randomScript(seed, sys.APs(), 30, 300, 100*time.Millisecond)
		ApplyTrace(sys, tr)
		sys.Run()
		if missing, extra := sys.MembershipDeviation(workload.LiveAtEnd(tr)); missing+extra != 0 {
			t.Fatalf("seed %d: the top ring misses %d and adds %d members", seed, missing, extra)
		}
		if msg := coverageMismatch(sys); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}
