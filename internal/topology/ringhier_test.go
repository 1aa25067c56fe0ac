package topology

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/ids"
)

// Counting and structural checks of a RingHierarchy that only its
// tests read: the protocol measures HCN_Ring by running rounds
// (internal/core), and analytic states formula (6).

// EdgeCount returns the number of edges in the hierarchy: r ring edges
// per ring plus one leader-to-parent link for every ring except the
// topmost, i.e. (r+1)·tn − 1 — the quantity HCN_Ring of formula (6).
func (rh *RingHierarchy) EdgeCount() int {
	tn := rh.NumRings()
	return (rh.R+1)*tn - 1
}

// Validate checks the structural invariants of the full hierarchy.
func (rh *RingHierarchy) Validate() error {
	tn := rh.NumRings()
	if len(rh.rings) != tn {
		return fmt.Errorf("topology: %d rings, want %d", len(rh.rings), tn)
	}
	seen := make(map[ids.NodeID]bool)
	for _, rg := range rh.rings {
		if len(rg.Nodes()) != rh.R {
			return fmt.Errorf("topology: ring %s size %d, want %d", rg.ID(), len(rg.Nodes()), rh.R)
		}
		for _, n := range rg.Nodes() {
			if seen[n] {
				return fmt.Errorf("topology: node %s in two rings", n)
			}
			seen[n] = true
		}
	}
	// Every ring except the topmost has a parent in the level above,
	// and that parent's child ring points back.
	for level, rgs := range rh.levels {
		for _, rg := range rgs {
			p := rh.ringParent[rg.ID()]
			if level == 0 {
				if !p.IsZero() {
					return fmt.Errorf("topology: topmost ring %s has parent %s", rg.ID(), p)
				}
				continue
			}
			if p.IsZero() {
				return fmt.Errorf("topology: ring %s has no parent", rg.ID())
			}
			if rh.levelOf[p] != level-1 {
				return fmt.Errorf("topology: ring %s parent %s at level %d, want %d",
					rg.ID(), p, rh.levelOf[p], level-1)
			}
			if child, ok := rh.childRing[p]; !ok || child != rg.ID() {
				return fmt.Errorf("topology: parent %s child-ring link broken", p)
			}
		}
	}
	return nil
}
