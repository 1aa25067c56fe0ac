package topology

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/ids"
	"github.com/rgbproto/rgb/internal/mathx"
)

// TreeHierarchy is the CONGRESS-style tree of membership servers used
// as the scalability baseline in §5.1: height h (levels 0..h−1, root
// at level 0), r branches per non-leaf node. The leaves at level h−1
// are the Local Membership Servers (LMSs, one per access domain); the
// internal nodes are Global Membership Servers (GMSs).
//
// With Representatives enabled, "the higher-level logical GMSs are
// indeed the lowest-level physical ones" ([4] via §2): each internal
// node's representative is its first child, so a logical GMS collapses
// onto the level-(h−2) GMS reached by following first children, and a
// logical edge whose endpoints share a physical host costs no real
// message. That is the hop-removal that formula (2) models.
type TreeHierarchy struct {
	H, R            int
	Representatives bool

	levels   [][]ids.NodeID // levels[i] = nodes of level i
	parent   map[ids.NodeID]ids.NodeID
	children map[ids.NodeID][]ids.NodeID
	physical map[ids.NodeID]ids.NodeID // logical node -> physical host
}

// NewTreeHierarchy builds the full tree. h >= 2 (a root plus leaves)
// and r >= 1.
func NewTreeHierarchy(h, r int, representatives bool) *TreeHierarchy {
	if h < 2 || r < 1 {
		panic(fmt.Sprintf("topology: invalid tree hierarchy h=%d r=%d", h, r))
	}
	th := &TreeHierarchy{
		H:               h,
		R:               r,
		Representatives: representatives,
		parent:          make(map[ids.NodeID]ids.NodeID),
		children:        make(map[ids.NodeID][]ids.NodeID),
		physical:        make(map[ids.NodeID]ids.NodeID),
	}
	ordinals := map[ids.Tier]int{}
	nextNode := func(tier ids.Tier) ids.NodeID {
		id := ids.MakeNodeID(tier, ordinals[tier])
		ordinals[tier]++
		return id
	}
	th.levels = make([][]ids.NodeID, h)
	for level := 0; level < h; level++ {
		// Root is a BR-grade server, leaves are AP-grade LMSs, other
		// GMS levels are AG-grade.
		var tier ids.Tier
		switch {
		case level == h-1:
			tier = ids.TierAP
		case level == 0:
			tier = ids.TierBR
		default:
			tier = ids.TierAG
		}
		count := mathx.PowInt(r, level)
		th.levels[level] = make([]ids.NodeID, count)
		for j := 0; j < count; j++ {
			n := nextNode(tier)
			th.levels[level][j] = n
			if level > 0 {
				p := th.levels[level-1][j/r]
				th.parent[n] = p
				th.children[p] = append(th.children[p], n)
			}
		}
	}
	// Physical collapsing: an internal node is hosted on the
	// level-(h−2) GMS reached by following first children; leaves and
	// level-(h−2) nodes host themselves.
	for level := h - 1; level >= 0; level-- {
		for _, n := range th.levels[level] {
			if !representatives || level >= h-2 {
				th.physical[n] = n
				continue
			}
			th.physical[n] = th.physical[th.children[n][0]]
		}
	}
	return th
}

// Leaves returns the LMS nodes (level h−1).
func (th *TreeHierarchy) Leaves() []ids.NodeID {
	out := make([]ids.NodeID, len(th.levels[th.H-1]))
	copy(out, th.levels[th.H-1])
	return out
}

// Level returns the nodes of one level.
func (th *TreeHierarchy) Level(i int) []ids.NodeID { return th.levels[i] }

// Parent returns the parent of n, or NoNode for the root.
func (th *TreeHierarchy) Parent(n ids.NodeID) ids.NodeID { return th.parent[n] }

// Children returns the children of n (nil for leaves).
func (th *TreeHierarchy) Children(n ids.NodeID) []ids.NodeID { return th.children[n] }

// Physical returns the physical host of a logical node. Without
// representatives it is the node itself.
func (th *TreeHierarchy) Physical(n ids.NodeID) ids.NodeID { return th.physical[n] }
