// Package topology builds the two hierarchies compared in the paper:
// the RGB ring-based hierarchy of APs, AGs and BRs (Section 4.1,
// Figure 2) and the CONGRESS-style tree-based hierarchy of membership
// servers with representatives (Section 5.1) used as the scalability
// baseline.
//
// Both builders produce the *full* worst-case hierarchy of the paper's
// analysis: height h with exactly r nodes per ring (ring-based) or r
// branches per non-leaf (tree-based).
package topology

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
	"github.com/rgbproto/rgb/internal/ring"
)

// RingHierarchy is the full ring-based hierarchy with height h (levels
// of rings, level 0 topmost) and exactly r nodes per ring. Level i has
// r^i rings, so the bottommost level h−1 holds n = r^h access proxies
// and the hierarchy has tn = Σ_{i=0}^{h−1} r^i rings in total, exactly
// the structure of §5.1–5.2.
//
// Tier mapping: the bottom level is the Access Proxy Tier, the top
// level is the Border Router Tier, and any intermediate levels are
// (sub-tiers of) the Access Gateway Tier. For h == 1 the single ring
// is an AP ring.
type RingHierarchy struct {
	H, R int

	rings  []*ring.Ring   // breadth-first: level 0 first, then level 1, ...
	levels [][]*ring.Ring // levels[i][j] = ring j of level i

	ringOf     map[ids.NodeID]*ring.Ring // node -> its ring
	ringParent map[ring.ID]ids.NodeID    // ring -> parent node in the level above
	childRing  map[ids.NodeID]ring.ID    // non-bottom node -> its child ring
	levelOf    map[ids.NodeID]int        // node -> ring level

	// The breadth-first numbering, for Covers: by ring.ID.Index the
	// ring's level and index within it, and per tier the first ring and
	// the number of rings whose nodes carry that tier's ordinals (none
	// for a tier the hierarchy lacks).
	pos   []ringPos
	tiers [ids.TierBR + 1]struct{ first, rings int }
}

type ringPos struct{ level, j int }

// NewRingHierarchy builds the full hierarchy. h >= 1 and r >= 1;
// r >= 2 for any hierarchy of interest (the paper analyses r >= 2).
func NewRingHierarchy(h, r int) *RingHierarchy {
	if h < 1 || r < 1 {
		panic(fmt.Sprintf("topology: invalid ring hierarchy h=%d r=%d", h, r))
	}
	rh := &RingHierarchy{
		H:          h,
		R:          r,
		ringOf:     make(map[ids.NodeID]*ring.Ring),
		ringParent: make(map[ring.ID]ids.NodeID),
		childRing:  make(map[ids.NodeID]ring.ID),
		levelOf:    make(map[ids.NodeID]int),
	}
	// Per-tier ordinal counters keep NodeIDs unique within a tier even
	// when several levels share the AG tier (sub-tiers).
	ordinals := map[ids.Tier]int{}
	nextNode := func(tier ids.Tier) ids.NodeID {
		id := ids.MakeNodeID(tier, ordinals[tier])
		ordinals[tier]++
		return id
	}
	rh.levels = make([][]*ring.Ring, h)
	ringIndex := 0
	for level := 0; level < h; level++ {
		tier := tierForLevel(level, h)
		count := mathx.PowInt(r, level)
		rh.levels[level] = make([]*ring.Ring, 0, count)
		if rh.tiers[tier].rings == 0 {
			rh.tiers[tier].first = ringIndex
		}
		rh.tiers[tier].rings += count
		for j := 0; j < count; j++ {
			nodes := make([]ids.NodeID, r)
			for m := range nodes {
				nodes[m] = nextNode(tier)
			}
			rg := ring.New(ring.ID{Tier: tier, Index: int32(ringIndex)}, nodes)
			ringIndex++
			rh.levels[level] = append(rh.levels[level], rg)
			rh.rings = append(rh.rings, rg)
			rh.pos = append(rh.pos, ringPos{level, j})
			for _, n := range nodes {
				rh.ringOf[n] = rg
				rh.levelOf[n] = level
			}
			if level > 0 {
				// Ring j of this level hangs below node j%r of ring
				// j/r in the level above: each upper node parents
				// exactly one child ring.
				parentRing := rh.levels[level-1][j/r]
				parentNode := parentRing.Nodes()[j%r]
				rh.ringParent[rg.ID()] = parentNode
				rh.childRing[parentNode] = rg.ID()
			}
		}
	}
	return rh
}

// tierForLevel maps a ring level to a network tier.
func tierForLevel(level, h int) ids.Tier {
	switch {
	case level == h-1:
		return ids.TierAP
	case level == 0:
		return ids.TierBR
	default:
		return ids.TierAG
	}
}

// NumRings returns tn = Σ_{i=0}^{h−1} r^i.
func (rh *RingHierarchy) NumRings() int { return mathx.GeometricSum(rh.R, rh.H-1) }

// NumNodes returns r·tn, the total number of network entities.
func (rh *RingHierarchy) NumNodes() int { return rh.R * rh.NumRings() }

// NumAPs returns n = r^h, the number of bottommost access proxies.
func (rh *RingHierarchy) NumAPs() int { return mathx.PowInt(rh.R, rh.H) }

// Rings returns all rings in breadth-first order (topmost first).
func (rh *RingHierarchy) Rings() []*ring.Ring { return rh.rings }

// Level returns the rings of one level (0 = topmost).
func (rh *RingHierarchy) Level(i int) []*ring.Ring { return rh.levels[i] }

// NumLevels returns h.
func (rh *RingHierarchy) NumLevels() int { return len(rh.levels) }

// RingOf returns the ring containing the node, or nil if unknown.
func (rh *RingHierarchy) RingOf(n ids.NodeID) *ring.Ring { return rh.ringOf[n] }

// LevelOf returns the ring level of the node, or -1 if unknown.
func (rh *RingHierarchy) LevelOf(n ids.NodeID) int {
	if l, ok := rh.levelOf[n]; ok {
		return l
	}
	return -1
}

// ParentOf returns the parent node of the given ring (the node in the
// level above that the ring's leader reports to), or NoNode for the
// topmost ring.
func (rh *RingHierarchy) ParentOf(id ring.ID) ids.NodeID { return rh.ringParent[id] }

// Covers reports whether the entity n lies under the coverage of the
// given ring: in the ring itself or in the subtree of rings below it.
// It is arithmetic on the breadth-first numbering: the nodes of a tier
// are numbered ring by ring, so an ordinal names its ring, and ring j of
// a level hangs below ring j/r of the level above. Anything that is not
// an entity or not a ring of this hierarchy is not covered.
func (rh *RingHierarchy) Covers(id ring.ID, n ids.NodeID) bool {
	t, ord := rh.tiers[n.Tier()], n.Ordinal()
	if ord < 0 || ord >= t.rings*rh.R ||
		id.Index < 0 || int(id.Index) >= len(rh.rings) || rh.rings[id.Index].ID() != id {
		return false
	}
	over, at := rh.pos[id.Index], rh.pos[t.first+ord/rh.R]
	return at.level >= over.level && at.j/mathx.PowInt(rh.R, at.level-over.level) == over.j
}

// ChildRingOf returns the child ring of a non-bottom node and whether
// it has one.
func (rh *RingHierarchy) ChildRingOf(n ids.NodeID) (ring.ID, bool) {
	id, ok := rh.childRing[n]
	return id, ok
}

// APs returns the bottommost-level nodes (the access proxies), in
// deterministic order.
func (rh *RingHierarchy) APs() []ids.NodeID {
	var out []ids.NodeID
	for _, rg := range rh.levels[rh.H-1] {
		out = append(out, rg.Nodes()...)
	}
	return out
}

// AllNodes returns every network entity, topmost level first.
func (rh *RingHierarchy) AllNodes() []ids.NodeID {
	var out []ids.NodeID
	for _, rg := range rh.rings {
		out = append(out, rg.Nodes()...)
	}
	return out
}

// SubtreeOwners partitions the hierarchy's entities across nprocs
// process slots for a networked deployment: node i of the topmost ring
// goes to slot i%nprocs, and every deeper entity follows its topmost
// ancestor, so each whole subtree lives in one process and
// parent/child notifications cross a process boundary only at the top
// ring. The assignment is a pure function of (h, r, nprocs), so every
// process of a deployment computes the identical address book.
func (rh *RingHierarchy) SubtreeOwners(nprocs int) map[ids.NodeID]int {
	if nprocs < 1 {
		nprocs = 1
	}
	owners := make(map[ids.NodeID]int, rh.NumNodes())
	for i, id := range rh.levels[0][0].Nodes() {
		owners[id] = i % nprocs
	}
	for level := 1; level < rh.H; level++ {
		for _, rg := range rh.levels[level] {
			slot := owners[rh.ParentOf(rg.ID())]
			for _, id := range rg.Nodes() {
				owners[id] = slot
			}
		}
	}
	return owners
}

// OwnedBy returns the entities SubtreeOwners(nprocs) assigns to one
// slot, in deterministic hierarchy order — the "one side of the
// partition" selector shared by the partition tests, examples and
// experiment scenarios.
func (rh *RingHierarchy) OwnedBy(nprocs, slot int) []ids.NodeID {
	owners := rh.SubtreeOwners(nprocs)
	var out []ids.NodeID
	for _, id := range rh.AllNodes() {
		if owners[id] == slot {
			out = append(out, id)
		}
	}
	return out
}
