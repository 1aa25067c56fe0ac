package tree

import (
	"fmt"
	"testing"

	"github.com/rgbproto/rgb/internal/analytic"
	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/mq"
)

// TestFloodHopsMatchHCNTree is the measured tree side of Table I: the
// flood of one proposal costs exactly the paper's HCN_Tree for the
// h <= 4 configurations, and one hop less for h = 5 (the documented
// off-by-one in formula (2); see EXPERIMENTS.md).
func TestFloodHopsMatchHCNTree(t *testing.T) {
	cases := []struct {
		h, r     int
		paper    int
		measured int
	}{
		{3, 5, 29, 29},
		{4, 5, 149, 149},
		{5, 5, 750, 749},
		{3, 10, 109, 109},
		{4, 10, 1099, 1099},
		{5, 10, 11000, 10999},
	}
	for _, c := range cases {
		svc := NewService(c.h, c.r, true, 1)
		cost := svc.MeasureRound(ids.GUID(1), svc.Tree().Leaves()[0])
		if int(cost.FloodHops) != c.measured {
			t.Errorf("h=%d r=%d: flood hops = %d, want %d (paper %d)",
				c.h, c.r, cost.FloodHops, cost.FloodHops, c.paper)
		}
		if got := analytic.HCNTree(c.h, c.r); got != c.paper {
			t.Errorf("analytic HCNTree(%d,%d) = %d, want %d", c.h, c.r, got, c.paper)
		}
	}
}

func TestFloodWithoutRepresentativesCountsAllEdges(t *testing.T) {
	for _, c := range []struct{ h, r int }{{3, 5}, {4, 5}, {3, 10}} {
		svc := NewService(c.h, c.r, false, 1)
		cost := svc.MeasureRound(ids.GUID(1), svc.Tree().Leaves()[0])
		// Every node but the root hangs off one edge.
		want := uint64(mathx.GeometricSum(c.r, c.h-1) - 1)
		if cost.FloodHops != want {
			t.Errorf("h=%d r=%d: flood = %d, want all %d edges", c.h, c.r, cost.FloodHops, want)
		}
		if cost.LocalFlood+cost.LocalUp != 0 {
			t.Errorf("h=%d r=%d: local deliveries without representatives = %d",
				c.h, c.r, cost.LocalFlood+cost.LocalUp)
		}
	}
}

func TestRepresentativesSaveExactlyFreeEdges(t *testing.T) {
	for _, c := range []struct{ h, r int }{{3, 5}, {4, 5}, {5, 5}, {4, 10}} {
		with := NewService(c.h, c.r, true, 1)
		without := NewService(c.h, c.r, false, 1)
		cw := with.MeasureRound(ids.GUID(1), with.Tree().Leaves()[0])
		co := without.MeasureRound(ids.GUID(1), without.Tree().Leaves()[0])
		// One free edge per GMS above level h-2: Σ_{i=0}^{h-3} r^i.
		saved := co.FloodHops - cw.FloodHops
		if free := mathx.GeometricSum(c.r, c.h-3); int(saved) != free {
			t.Errorf("h=%d r=%d: saved %d, want %d", c.h, c.r, saved, free)
		}
		if cw.LocalFlood != saved {
			t.Errorf("h=%d r=%d: local flood deliveries %d != saved %d", c.h, c.r, cw.LocalFlood, saved)
		}
		// Climbing from leaf 0 (on the root's representative chain)
		// also saves h-2 climb hops: every GMS-to-GMS edge of the
		// chain is intra-host.
		if int(cw.LocalUp) != c.h-2 {
			t.Errorf("h=%d r=%d: local climb deliveries %d, want %d", c.h, c.r, cw.LocalUp, c.h-2)
		}
	}
}

func TestUpPhaseCost(t *testing.T) {
	// Climb from a leaf that shares no representative chain with the
	// root: h-1 real hops.
	svc := NewService(4, 3, true, 1)
	leaves := svc.Tree().Leaves()
	cost := svc.MeasureRound(ids.GUID(1), leaves[len(leaves)-1])
	if cost.UpHops != 3 {
		t.Errorf("up hops = %d, want 3", cost.UpHops)
	}
}

func TestMembershipConsistentAfterRound(t *testing.T) {
	svc := NewService(3, 4, true, 1)
	svc.MeasureRound(ids.GUID(1), svc.Tree().Leaves()[0])
	if div := divergentServers(svc); div != 0 {
		t.Fatalf("%d servers diverged", div)
	}
	// Every server holds exactly one member.
	root := svc.servers[svc.Tree().Level(0)[0]]
	if root.members.Len() != 1 || !root.members.Contains(1) {
		t.Fatalf("root membership wrong: %s", root.members)
	}
}

func TestMultipleChangesConverge(t *testing.T) {
	svc := NewService(3, 4, true, 1)
	leaves := svc.Tree().Leaves()
	for g := 1; g <= 10; g++ {
		c := mq.Change{
			Op:     mq.OpMemberJoin,
			Member: ids.MemberInfo{GUID: ids.GUID(g), AP: leaves[g%len(leaves)]},
			Origin: leaves[g%len(leaves)],
		}
		svc.Submit(c, leaves[g%len(leaves)])
	}
	svc.Run()
	if div := divergentServers(svc); div != 0 {
		t.Fatalf("%d servers diverged", div)
	}
	root := svc.servers[svc.Tree().Level(0)[0]]
	if got := root.members.Len(); got != 10 {
		t.Fatalf("root has %d members, want 10", got)
	}
	// Leaves and handoffs converge too.
	svc.Submit(mq.Change{Op: mq.OpMemberLeave, Member: ids.MemberInfo{GUID: 3}}, leaves[0])
	svc.Run()
	if root.members.Contains(3) {
		t.Fatal("leave did not propagate")
	}
}

func TestApplyCountsPerRound(t *testing.T) {
	svc := NewService(3, 3, true, 1)
	svc.MeasureRound(ids.GUID(1), svc.Tree().Leaves()[0])
	// Every server applies the change exactly once.
	for level := 0; level < 3; level++ {
		for _, id := range svc.Tree().Level(level) {
			if got := svc.servers[id].applied; got != 1 {
				t.Fatalf("server %s applied %d times", id, got)
			}
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := NewService(3, 3, true, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic submitting at the root")
		}
	}()
	svc.Submit(mq.Change{Op: mq.OpMemberJoin}, svc.Tree().Level(0)[0])
}

// TestRingVsTreeShape reproduces the Table I comparison empirically:
// measured ring hops exceed measured tree hops by the same small
// factor the analytic table reports (1.10x – 1.25x).
func TestRingVsTreeShape(t *testing.T) {
	for _, c := range []struct{ treeH, r int }{{3, 5}, {4, 5}, {3, 10}} {
		svc := NewService(c.treeH, c.r, true, 1)
		treeCost := svc.MeasureRound(ids.GUID(1), svc.Tree().Leaves()[0])
		ringHops := analytic.HCNRing(c.treeH-1, c.r)
		ratio := float64(ringHops) / float64(treeCost.FloodHops)
		if ratio < 1.0 || ratio > 1.3 {
			t.Errorf("treeH=%d r=%d: measured ratio %.3f outside the paper's comparable range", c.treeH, c.r, ratio)
		}
	}
}

// BenchmarkTableI_Tree measures one proposal round per iteration.
// hops/op reproduces the HCN_Tree column of Table I (29, 149, 750*,
// 109, 1099, 11000*; the h=5 rows measure one hop less — see
// EXPERIMENTS.md).
func BenchmarkTableI_Tree(b *testing.B) {
	for _, cfg := range []struct{ h, r int }{
		{3, 5}, {4, 5}, {5, 5}, {3, 10}, {4, 10}, {5, 10},
	} {
		name := fmt.Sprintf("n=%d/h=%d/r=%d", mathx.PowInt(cfg.r, cfg.h-1), cfg.h, cfg.r)
		b.Run(name, func(b *testing.B) {
			svc := NewService(cfg.h, cfg.r, true, 1)
			leaf := svc.Tree().Leaves()[0]
			var hops uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hops = svc.MeasureRound(ids.GUID(i+1), leaf).FloodHops
			}
			b.ReportMetric(float64(hops), "hops/op")
		})
	}
}

// divergentServers counts the servers whose membership differs from
// the root's: zero is the post-round agreement of the one-round
// algorithm.
func divergentServers(s *Service) int {
	ref := s.servers[s.tree.Level(0)[0]].members
	divergent := 0
	for level := 1; level < s.tree.H; level++ {
		for _, id := range s.tree.Level(level) {
			if !sameMembers(ref, s.servers[id].members) {
				divergent++
			}
		}
	}
	return divergent
}

// sameMembers reports whether two lists hold the same GUIDs.
func sameMembers(a, b *ids.MemberList) bool {
	same := a.Len() == b.Len()
	a.Each(func(m ids.MemberInfo) { same = same && b.Contains(m.GUID) })
	return same
}
