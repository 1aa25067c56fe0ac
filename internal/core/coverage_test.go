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
// of one member; a small gap puts several changes of one member in flight.
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

// watchReplay applies, in order, every member event a System's sink
// hears, the way a Watch subscriber would, and returns "" when the
// result is the System's top-ring view: the same members at the same
// access proxies.
type watchReplay map[ids.GUID]ids.NodeID

func (w watchReplay) hear(e Event) {
	switch e.Kind {
	case EventJoin, EventHandoff:
		w[e.Member.GUID] = e.Member.AP
	case EventLeave, EventFail:
		delete(w, e.Member.GUID)
	}
}

func (w watchReplay) mismatch(sys *System) string {
	top := sys.GlobalMembership()
	same := len(top) == len(w)
	for _, m := range top {
		if ap, ok := w[m.GUID]; !ok || ap != m.AP {
			same = false
		}
	}
	if same {
		return ""
	}
	return fmt.Sprintf("a Watch replay holds %d members, the top ring %d, and they differ", len(w), len(top))
}

// TestRingListsMatchCoverage: under the default DisseminateFull every
// ring runs every change and keeps the members its subtree covers, and
// applies one member's changes in the member's order however close
// together they come. After a random join/leave/fail/handoff script
// whose ops of one member are at least gap apart, on one System and on
// 3 simulated processes, every System at quiescence has
//   - a top ring holding exactly the script's live members;
//   - every live entity's ListOfRingMembers holding exactly the top
//     ring's members under it, at the same access proxy;
//   - a Watch replay equal to its top ring.
func TestRingListsMatchCoverage(t *testing.T) {
	substrates := []struct {
		name  string
		build func(cfg Config) ([]*System, func(workload.Trace))
	}{
		{"one-system", func(cfg Config) ([]*System, func(workload.Trace)) {
			sys := NewSystem(cfg)
			return []*System{sys}, func(tr workload.Trace) { ApplyTrace(sys, tr) }
		}},
		{"3-procs", func(cfg Config) ([]*System, func(workload.Trace)) {
			p := newProcs(cfg, 3)
			return p.sys, p.applyTrace
		}},
	}
	for _, sub := range substrates {
		for _, gap := range []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond} {
			t.Run(fmt.Sprintf("%s/gap=%s", sub.name, gap), func(t *testing.T) {
				var wrong []string
				for seed := uint64(1); seed <= 20; seed++ {
					cfg := quietConfig(3, 3)
					cfg.Seed = seed
					systems, apply := sub.build(cfg)
					script := randomScript(seed, systems[0].APs(), 30, 300, gap)
					apply(script)
					replays := make([]watchReplay, len(systems))
					for i, sys := range systems {
						replays[i] = watchReplay{}
						sys.SetObserver(watchOf(replays[i].hear))
					}
					systems[0].Run()
					for i, sys := range systems {
						msg := coverageMismatch(sys)
						if missing, extra := sys.MembershipDeviation(workload.LiveAtEnd(script)); missing+extra != 0 {
							msg = fmt.Sprintf("the top ring misses %d and adds %d members; %s", missing, extra, msg)
						}
						if w := replays[i].mismatch(sys); w != "" {
							msg = w + "; " + msg
						}
						if msg != "" {
							wrong = append(wrong, fmt.Sprintf("seed %d system %d: %s", seed, i, msg))
							break
						}
					}
				}
				if len(wrong) > 0 {
					t.Fatalf("%d of 20 seeds wrong, the first: %s", len(wrong), wrong[0])
				}
			})
		}
	}
}
