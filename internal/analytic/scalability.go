// Package analytic implements the closed-form scalability and
// reliability models of Section 5 of the paper — formulas (1) through
// (8) — and the generators that regenerate Table I and Table II.
//
// The formulas are implemented verbatim from the paper so that the
// published numbers are reproduced exactly; the simulation packages
// (topology, core, reliability) then validate them empirically.
package analytic

import "github.com/rgbproto/rgb/internal/mathx"

// HopCountTreeNoReps returns formula (1): the total hop count of one
// round in a tree-based hierarchy *without* representatives with n
// leaf LMSs, height h >= 3 and branching r >= 2, defined as n times
// the number of edges:
//
//	HopCount = n * Σ_{i=0}^{h-2} r^{i+1}
func HopCountTreeNoReps(n, h, r int) int {
	sum := 0
	for i := 0; i <= h-2; i++ {
		sum += mathx.PowInt(r, i+1)
	}
	return n * sum
}

// HopCountsRemovedTree returns formula (2): the hop counts removed
// from formula (1) by representative collapsing,
//
//	Removed = n * Σ_{i=0}^{h-3} (h-i-2) * (r^i − Σ_{j=0}^{i-1} r^j)
func HopCountsRemovedTree(n, h, r int) int {
	sum := 0
	for i := 0; i <= h-3; i++ {
		inner := mathx.GeometricSum(r, i-1)
		sum += (h - i - 2) * (mathx.PowInt(r, i) - inner)
	}
	return n * sum
}

// HopCountTree returns formula (3): the hop count of the tree-based
// hierarchy with representatives, formula (1) minus formula (2).
func HopCountTree(n, h, r int) int {
	return HopCountTreeNoReps(n, h, r) - HopCountsRemovedTree(n, h, r)
}

// HCNTree returns formula (4): the normalized hop count of the
// tree-based hierarchy with representatives — HopCountTree / n, the
// "average number of messages for one membership change message".
func HCNTree(h, r int) int {
	// Using n = 1 in formulas (1)-(3) divides out the common factor.
	return HopCountTree(1, h, r)
}

// TreeLeaves returns n = r^(h−1), the number of LMSs of the tree
// hierarchy — the scalability parameter of the tree rows of Table I.
func TreeLeaves(h, r int) int { return mathx.PowInt(r, h-1) }

// RingCount returns tn = Σ_{i=0}^{h−1} r^i, the total number of
// logical rings of the full ring-based hierarchy.
func RingCount(h, r int) int { return mathx.GeometricSum(r, h-1) }

// HCNRing returns formula (6): the normalized hop count of the
// ring-based hierarchy, (r+1)·tn − 1.
func HCNRing(h, r int) int {
	return (r+1)*RingCount(h, r) - 1
}

// RingAPs returns n = r^h, the number of bottommost APs of the ring
// hierarchy — the scalability parameter of the ring rows of Table I.
func RingAPs(h, r int) int { return mathx.PowInt(r, h) }

// TableIRow is one paired row of Table I: a tree-based configuration
// and the ring-based configuration with the same number of
// bottom-tier servers n.
type TableIRow struct {
	N       int // group size (LMS / AP count) — equal on both sides
	TreeH   int // tree height (n = r^(TreeH-1))
	RingH   int // ring hierarchy height (n = r^RingH)
	R       int // branching factor / ring size
	HCNTree int // formula (4)
	HCNRing int // formula (6)
}

// TableI regenerates the six rows of Table I of the paper.
func TableI() []TableIRow {
	configs := []struct{ treeH, r int }{
		{3, 5}, {4, 5}, {5, 5}, {3, 10}, {4, 10}, {5, 10},
	}
	rows := make([]TableIRow, 0, len(configs))
	for _, c := range configs {
		ringH := c.treeH - 1 // same n: r^(treeH-1) = r^ringH
		rows = append(rows, TableIRow{
			N:       TreeLeaves(c.treeH, c.r),
			TreeH:   c.treeH,
			RingH:   ringH,
			R:       c.r,
			HCNTree: HCNTree(c.treeH, c.r),
			HCNRing: HCNRing(ringH, c.r),
		})
	}
	return rows
}
