package topology

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/ring"
)

func TestRingHierarchyShape(t *testing.T) {
	cases := []struct {
		h, r           int
		rings, nodes   int
		aps, edgeCount int
	}{
		{1, 5, 1, 5, 5, 5},
		{2, 5, 6, 30, 25, 35},
		{3, 5, 31, 155, 125, 185},
		{4, 5, 156, 780, 625, 935},
		{2, 10, 11, 110, 100, 120},
		{3, 10, 111, 1110, 1000, 1220},
		{4, 10, 1111, 11110, 10000, 12220},
	}
	for _, c := range cases {
		rh := NewRingHierarchy(c.h, c.r)
		if err := rh.Validate(); err != nil {
			t.Fatalf("h=%d r=%d: %v", c.h, c.r, err)
		}
		if got := rh.NumRings(); got != c.rings {
			t.Errorf("h=%d r=%d: NumRings = %d, want %d", c.h, c.r, got, c.rings)
		}
		if got := rh.NumNodes(); got != c.nodes {
			t.Errorf("h=%d r=%d: NumNodes = %d, want %d", c.h, c.r, got, c.nodes)
		}
		if got := rh.NumAPs(); got != c.aps {
			t.Errorf("h=%d r=%d: NumAPs = %d, want %d", c.h, c.r, got, c.aps)
		}
		if got := len(rh.APs()); got != c.aps {
			t.Errorf("h=%d r=%d: len(APs) = %d, want %d", c.h, c.r, got, c.aps)
		}
		if got := rh.EdgeCount(); got != c.edgeCount {
			t.Errorf("h=%d r=%d: EdgeCount = %d, want %d (= HCN_Ring)", c.h, c.r, got, c.edgeCount)
		}
		if got := len(rh.AllNodes()); got != c.nodes {
			t.Errorf("h=%d r=%d: AllNodes = %d", c.h, c.r, got)
		}
	}
}

func TestRingHierarchyTiers(t *testing.T) {
	rh := NewRingHierarchy(3, 5)
	if tier := rh.Level(0)[0].Nodes()[0].Tier(); tier != ids.TierBR {
		t.Errorf("top level tier = %s, want BR", tier)
	}
	if tier := rh.Level(1)[0].Nodes()[0].Tier(); tier != ids.TierAG {
		t.Errorf("middle level tier = %s, want AG", tier)
	}
	if tier := rh.Level(2)[0].Nodes()[0].Tier(); tier != ids.TierAP {
		t.Errorf("bottom level tier = %s, want AP", tier)
	}
	for _, n := range rh.APs() {
		if n.Tier() != ids.TierAP {
			t.Fatalf("AP list contains %s", n)
		}
	}
}

func TestRingHierarchyParentChildLinks(t *testing.T) {
	rh := NewRingHierarchy(3, 4)
	// Topmost ring has no parent.
	top := rh.Level(0)[0]
	if p := rh.ParentOf(top.ID()); !p.IsZero() {
		t.Fatalf("top ring parent = %s", p)
	}
	// Every node of levels 0..h-2 parents exactly one child ring and
	// the links are mutual.
	for level := 0; level < rh.NumLevels()-1; level++ {
		for _, rg := range rh.Level(level) {
			for _, n := range rg.Nodes() {
				child, ok := rh.ChildRingOf(n)
				if !ok {
					t.Fatalf("node %s at level %d has no child ring", n, level)
				}
				if rh.ParentOf(child) != n {
					t.Fatalf("child ring %s does not point back to %s", child, n)
				}
			}
		}
	}
	// Bottom nodes have no child ring.
	for _, n := range rh.APs() {
		if _, ok := rh.ChildRingOf(n); ok {
			t.Fatalf("AP %s has a child ring", n)
		}
	}
}

func TestRingHierarchyLookups(t *testing.T) {
	rh := NewRingHierarchy(3, 5)
	ap := rh.APs()[17]
	rg := rh.RingOf(ap)
	if rg == nil || !slices.Contains(rg.Nodes(), ap) {
		t.Fatal("RingOf broken")
	}
	if rh.LevelOf(ap) != 2 {
		t.Fatalf("LevelOf(ap) = %d", rh.LevelOf(ap))
	}
	if rh.LevelOf(ids.MakeNodeID(ids.TierBR, 9999)) != -1 {
		t.Fatal("unknown node should be level -1")
	}
	if rh.RingOf(ids.MakeNodeID(ids.TierBR, 9999)) != nil {
		t.Fatal("unknown node should have nil ring")
	}
}

// coversByWalk is what core computed before Covers existed: climb from
// the node's ring through the parent links until the ring turns up or
// the hierarchy ends. It stays as the oracle.
func coversByWalk(rh *RingHierarchy, id ring.ID, n ids.NodeID) bool {
	rg := rh.RingOf(n)
	if rg == nil {
		return false
	}
	cur := rg.ID()
	for {
		if cur == id {
			return true
		}
		p := rh.ParentOf(cur)
		if p.IsZero() {
			return false
		}
		cur = rh.RingOf(p).ID()
	}
}

func TestCoversMatchesParentWalk(t *testing.T) {
	for h := 1; h <= 4; h++ {
		for r := 2; r <= 5; r++ {
			rh := NewRingHierarchy(h, r)
			// Every entity, then what is no entity: the absent node, a
			// mobile host, and in each tier the ordinals just outside it
			// (a tier the hierarchy lacks is outside from ordinal 0).
			entities := rh.NumNodes()
			nodes := append(rh.AllNodes(), ids.NoNode, ids.MakeNodeID(ids.TierMH, 0),
				ids.NodeID(uint64(ids.TierAP)<<62)) // a tier with no ordinal at all
			for _, tier := range []ids.Tier{ids.TierAP, ids.TierAG, ids.TierBR} {
				for _, ord := range []int{0, rh.NumAPs(), rh.NumNodes(), 1 << 40} {
					nodes = append(nodes, ids.MakeNodeID(tier, ord))
				}
			}
			// Every ring, then what is no ring: indices outside the
			// hierarchy and a real index under the wrong tier.
			var rings []ring.ID
			for _, rg := range rh.Rings() {
				rings = append(rings, rg.ID())
			}
			rings = append(rings, ring.ID{Tier: ids.TierAP, Index: -1}, ring.ID{Tier: ids.TierAP, Index: int32(rh.NumRings())},
				ring.ID{Tier: ids.TierMH, Index: 0}, ring.ID{Tier: ids.TierAG, Index: int32(rh.NumRings()) - 1})
			covered := 0
			for _, id := range rings {
				for i, n := range nodes {
					got, want := rh.Covers(id, n), coversByWalk(rh, id, n)
					if got != want {
						t.Fatalf("h=%d r=%d: Covers(%s, %s) = %v, the parent walk says %v", h, r, id, n, got, want)
					}
					if got && i < entities {
						covered++
					}
				}
			}
			// A node at level l is covered by its own ring and the l above.
			want := 0
			for l := 0; l < h; l++ {
				want += (l + 1) * r * mathx.PowInt(r, l)
			}
			if covered != want {
				t.Errorf("h=%d r=%d: %d (ring, node) pairs covered, want %d", h, r, covered, want)
			}
		}
	}
}

func TestRingHierarchyEachRingDistinctLeaders(t *testing.T) {
	rh := NewRingHierarchy(3, 5)
	leaders := map[ids.NodeID]bool{}
	for _, rg := range rh.Rings() {
		l := rg.Leader()
		if leaders[l] {
			t.Fatalf("leader %s reused", l)
		}
		leaders[l] = true
	}
	if len(leaders) != rh.NumRings() {
		t.Fatalf("%d leaders for %d rings", len(leaders), rh.NumRings())
	}
}

func TestRingHierarchyInvalidArgsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"h=0": func() { NewRingHierarchy(0, 5) },
		"r=0": func() { NewRingHierarchy(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRingHierarchyShapeProperty(t *testing.T) {
	f := func(hRaw, rRaw uint8) bool {
		h := int(hRaw%4) + 1
		r := int(rRaw%5) + 2
		rh := NewRingHierarchy(h, r)
		if rh.Validate() != nil {
			return false
		}
		return rh.EdgeCount() == (r+1)*mathx.GeometricSum(r, h-1)-1 &&
			rh.NumAPs() == mathx.PowInt(r, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeHierarchyShape(t *testing.T) {
	cases := []struct {
		h, r                 int
		leaves, nodes, edges int
	}{
		{2, 5, 5, 6, 5},
		{3, 5, 25, 31, 30},
		{4, 5, 125, 156, 155},
		{5, 5, 625, 781, 780},
		{3, 10, 100, 111, 110},
		{4, 10, 1000, 1111, 1110},
		{5, 10, 10000, 11111, 11110},
	}
	for _, c := range cases {
		th := NewTreeHierarchy(c.h, c.r, false)
		if err := th.Validate(); err != nil {
			t.Fatalf("h=%d r=%d: %v", c.h, c.r, err)
		}
		if got := len(th.Leaves()); got != c.leaves {
			t.Errorf("h=%d r=%d: leaves = %d, want %d", c.h, c.r, got, c.leaves)
		}
		if got := th.NumNodes(); got != c.nodes {
			t.Errorf("h=%d r=%d: nodes = %d, want %d", c.h, c.r, got, c.nodes)
		}
		if got := th.EdgeCount(); got != c.edges {
			t.Errorf("h=%d r=%d: edges = %d, want %d", c.h, c.r, got, c.edges)
		}
		if got := th.FreeEdgeCount(); got != 0 {
			t.Errorf("h=%d r=%d: free edges without representatives = %d", c.h, c.r, got)
		}
	}
}

func TestTreeHierarchyRepresentativeCollapsing(t *testing.T) {
	// Free edges under first-child chains: Σ_{i=0}^{h-3} r^i.
	cases := []struct {
		h, r int
		free int
	}{
		{3, 5, 1},
		{4, 5, 6},
		{5, 5, 31},
		{3, 10, 1},
		{4, 10, 11},
		{5, 10, 111},
		{2, 5, 0}, // no GMS level above h-2
	}
	for _, c := range cases {
		th := NewTreeHierarchy(c.h, c.r, true)
		if err := th.Validate(); err != nil {
			t.Fatalf("h=%d r=%d: %v", c.h, c.r, err)
		}
		if got := th.FreeEdgeCount(); got != c.free {
			t.Errorf("h=%d r=%d: free = %d, want %d", c.h, c.r, got, c.free)
		}
	}
}

func TestTreeHierarchyMeasuredHopCountsVsPaperTableI(t *testing.T) {
	// The measured per-change hop count of the simulated tree equals
	// the paper's HCN_Tree for the h<=4 rows of Table I; for the h=5
	// rows the paper's formula (2) over-counts removed hops by 1 (see
	// DESIGN.md), so the measured value is one higher.
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
		th := NewTreeHierarchy(c.h, c.r, true)
		// Real messages of one broadcast round: logical edges minus
		// representative-collapsed ones.
		got := th.EdgeCount() - th.FreeEdgeCount()
		if got != c.measured {
			t.Errorf("h=%d r=%d: measured = %d, want %d (paper %d)", c.h, c.r, got, c.measured, c.paper)
		}
		if diff := c.paper - got; diff < 0 || diff > 1 {
			t.Errorf("h=%d r=%d: measured deviates from paper by %d hops", c.h, c.r, diff)
		}
	}
}

func TestTreeHierarchyPhysicalHosts(t *testing.T) {
	th := NewTreeHierarchy(4, 3, true)
	root := th.Level(0)[0]
	// Root collapses onto a level h-2 = 2 node.
	ph := th.Physical(root)
	if ph == root {
		t.Fatal("root should not host itself with representatives")
	}
	foundAtLevel := -1
	for level := 0; level < th.H; level++ {
		for _, n := range th.Level(level) {
			if n == ph {
				foundAtLevel = level
			}
		}
	}
	if foundAtLevel != th.H-2 {
		t.Fatalf("root hosted at level %d, want %d", foundAtLevel, th.H-2)
	}
	// Chain consistency: root's physical equals its first child's.
	if th.Physical(th.Children(root)[0]) != ph {
		t.Fatal("first-child chain broken")
	}
	// Non-first children have different hosts.
	if th.Physical(th.Children(root)[1]) == ph {
		t.Fatal("second child should host a different chain")
	}
	// Leaves host themselves.
	for _, leaf := range th.Leaves() {
		if th.Physical(leaf) != leaf {
			t.Fatalf("leaf %s not self-hosted", leaf)
		}
	}
}

func TestTreeHierarchyParentChild(t *testing.T) {
	th := NewTreeHierarchy(3, 4, false)
	if !th.Parent(th.Level(0)[0]).IsZero() {
		t.Fatal("root should have no parent")
	}
	for _, leaf := range th.Leaves() {
		p := th.Parent(leaf)
		if p.IsZero() {
			t.Fatalf("leaf %s has no parent", leaf)
		}
		found := false
		for _, c := range th.Children(p) {
			if c == leaf {
				found = true
			}
		}
		if !found {
			t.Fatalf("parent of %s does not list it as child", leaf)
		}
	}
}

func TestTreeHierarchyInvalidArgsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"h=1": func() { NewTreeHierarchy(1, 5, false) },
		"r=0": func() { NewTreeHierarchy(3, 0, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTreeEdgesEqualNodesMinusOneProperty(t *testing.T) {
	f := func(hRaw, rRaw uint8) bool {
		h := int(hRaw%4) + 2
		r := int(rRaw%5) + 2
		th := NewTreeHierarchy(h, r, true)
		return th.EdgeCount() == th.NumNodes()-1 && th.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
