package topology

import (
	"fmt"

	"github.com/rgbproto/rgb/internal/mathx"
)

// Counting and structural checks of a TreeHierarchy that only its
// tests read: the simulated tree service measures the same counts by
// flooding a proposal (internal/tree).

// NumNodes returns the total number of logical nodes.
func (th *TreeHierarchy) NumNodes() int { return mathx.GeometricSum(th.R, th.H-1) }

// EdgeCount returns the number of logical tree edges,
// Σ_{i=0}^{h−2} r^{i+1} — the inner sum of formula (1).
func (th *TreeHierarchy) EdgeCount() int {
	total := 0
	for i := 0; i <= th.H-2; i++ {
		total += mathx.PowInt(th.R, i+1)
	}
	return total
}

// FreeEdgeCount returns the number of logical edges that cost no real
// message because both endpoints collapse onto the same physical host.
// Under first-child representative chains that is one edge per
// internal node above the lowest GMS level: Σ_{i=0}^{h−3} r^i.
//
// Note: the paper's formula (2) counts Σ (h−i−2)·(r^i − Σ r^j), which
// equals this for h <= 4 but exceeds it by a small constant for
// h >= 5 (the formula double-counts representative chains); see
// EXPERIMENTS.md. The measured hop counts in Table I therefore match
// the paper exactly for the h <= 4 rows and differ by 1 hop in the
// h = 5 rows.
func (th *TreeHierarchy) FreeEdgeCount() int {
	if !th.Representatives {
		return 0
	}
	free := 0
	for level := 0; level <= th.H-3; level++ {
		for _, n := range th.levels[level] {
			if th.physical[n] == th.physical[th.children[n][0]] {
				free++
			}
		}
	}
	return free
}

// Validate checks the structural invariants.
func (th *TreeHierarchy) Validate() error {
	if len(th.levels) != th.H {
		return fmt.Errorf("topology: %d levels, want %d", len(th.levels), th.H)
	}
	for level, nodes := range th.levels {
		if len(nodes) != mathx.PowInt(th.R, level) {
			return fmt.Errorf("topology: level %d has %d nodes, want r^%d", level, len(nodes), level)
		}
		for _, n := range nodes {
			if level == 0 {
				if _, ok := th.parent[n]; ok {
					return fmt.Errorf("topology: root has a parent")
				}
			} else if th.parent[n].IsZero() {
				return fmt.Errorf("topology: %s has no parent", n)
			}
			if level < th.H-1 && len(th.children[n]) != th.R {
				return fmt.Errorf("topology: %s has %d children, want %d", n, len(th.children[n]), th.R)
			}
			if level == th.H-1 && len(th.children[n]) != 0 {
				return fmt.Errorf("topology: leaf %s has children", n)
			}
			if th.physical[n].IsZero() {
				return fmt.Errorf("topology: %s has no physical host", n)
			}
		}
	}
	return nil
}
