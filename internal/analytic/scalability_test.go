package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

// TestTableIExact asserts the six published rows of Table I, both
// sides, exactly as printed in the paper.
func TestTableIExact(t *testing.T) {
	want := []TableIRow{
		{N: 25, TreeH: 3, RingH: 2, R: 5, HCNTree: 29, HCNRing: 35},
		{N: 125, TreeH: 4, RingH: 3, R: 5, HCNTree: 149, HCNRing: 185},
		{N: 625, TreeH: 5, RingH: 4, R: 5, HCNTree: 750, HCNRing: 935},
		{N: 100, TreeH: 3, RingH: 2, R: 10, HCNTree: 109, HCNRing: 120},
		{N: 1000, TreeH: 4, RingH: 3, R: 10, HCNTree: 1099, HCNRing: 1220},
		{N: 10000, TreeH: 5, RingH: 4, R: 10, HCNTree: 11000, HCNRing: 12220},
	}
	got := TableI()
	if len(got) != len(want) {
		t.Fatalf("TableI has %d rows, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("row %d:\n got  %+v\n want %+v", i, got[i], w)
		}
	}
}

func TestHopCountFormulasUnnormalized(t *testing.T) {
	// Formula (3) = formula (1) - formula (2).
	n, h, r := 125, 4, 5
	if HopCountTree(n, h, r) != HopCountTreeNoReps(n, h, r)-HopCountsRemovedTree(n, h, r) {
		t.Error("formula (3) identity broken")
	}
	if got := HopCountTree(1, 4, 5); got != 149 {
		t.Errorf("HCN via n=1 = %d", got)
	}
}

func TestHopCountsRemovedExamples(t *testing.T) {
	// Worked by hand from formula (2) with n=1.
	cases := []struct {
		h, r int
		want int
	}{
		{3, 5, 1},  // root only: h-2 = 1
		{4, 5, 6},  // 2*1 + 1*4
		{5, 5, 30}, // 3*1 + 2*4 + 1*19
		{3, 10, 1},
		{4, 10, 11},  // 2*1 + 1*9
		{5, 10, 110}, // 3*1 + 2*9 + 1*89
	}
	for _, c := range cases {
		if got := HopCountsRemovedTree(1, c.h, c.r); got != c.want {
			t.Errorf("removed(h=%d,r=%d) = %d, want %d", c.h, c.r, got, c.want)
		}
	}
}

func TestHCNRingClosedForm(t *testing.T) {
	// HCN_Ring = (r+1)*tn - 1 must equal a direct edge enumeration:
	// r edges per ring plus one uplink per non-top ring.
	f := func(hRaw, rRaw uint8) bool {
		h := int(hRaw%5) + 1
		r := int(rRaw%9) + 2
		tn := RingCount(h, r)
		direct := r*tn + (tn - 1)
		return HCNRing(h, r) == direct
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRingCountAndAPs(t *testing.T) {
	if RingCount(3, 5) != 31 || RingCount(3, 10) != 111 {
		t.Error("RingCount wrong")
	}
	if RingAPs(3, 5) != 125 || RingAPs(3, 10) != 1000 {
		t.Error("RingAPs wrong")
	}
	if TreeLeaves(4, 5) != 125 || TreeLeaves(5, 10) != 10000 {
		t.Error("TreeLeaves wrong")
	}
}

// TestEquivalentGroupSizes checks the pairing logic of Table I: a
// tree of height h and a ring hierarchy of height h-1 serve the same
// group size n.
func TestEquivalentGroupSizes(t *testing.T) {
	for _, r := range []int{2, 5, 10} {
		for treeH := 3; treeH <= 6; treeH++ {
			if TreeLeaves(treeH, r) != RingAPs(treeH-1, r) {
				t.Errorf("group sizes differ for treeH=%d r=%d", treeH, r)
			}
		}
	}
}

// TestComparableScalability checks the paper's qualitative claim: the
// ring hierarchy's normalized hop count is within ~25% of the tree's
// for every Table I configuration, and the ratio shrinks as n grows
// within a fixed r.
func TestComparableScalability(t *testing.T) {
	for _, row := range TableI() {
		ratio := float64(row.HCNRing) / float64(row.HCNTree)
		if ratio < 1.0 || ratio > 1.3 {
			t.Errorf("n=%d r=%d: HCN ratio %.3f outside (1.0, 1.3]", row.N, row.R, ratio)
		}
	}
	// The ratio grows slightly with height but converges: the increment
	// shrinks at every step (≈1.21, 1.24, 1.247 for r=5).
	for _, r := range []int{5, 10} {
		ratio := func(treeH int) float64 { return float64(HCNRing(treeH-1, r)) / float64(HCNTree(treeH, r)) }
		d1 := ratio(4) - ratio(3)
		d2 := ratio(5) - ratio(4)
		if d1 <= 0 || d2 <= 0 || d2 >= d1 {
			t.Errorf("r=%d: ratio increments %f, %f should be positive and shrinking", r, d1, d2)
		}
	}
}

// TestHCNGrowsLinearlyInN verifies the scalability shape: HCN is
// Θ(n) in the group size for both hierarchies (each membership change
// costs ~O(edges) ≈ O(n) messages in the full worst-case model), so
// HCN/n approaches a constant.
func TestHCNGrowsLinearlyInN(t *testing.T) {
	for _, r := range []int{5, 10} {
		prevRatio := 0.0
		for h := 2; h <= 5; h++ {
			n := RingAPs(h, r)
			ratio := float64(HCNRing(h, r)) / float64(n)
			if prevRatio != 0 {
				// Converging: successive ratios should differ by < 15%.
				if math.Abs(ratio-prevRatio)/prevRatio > 0.15 {
					t.Errorf("r=%d h=%d: HCN/n not converging: %.4f vs %.4f", r, h, ratio, prevRatio)
				}
			}
			prevRatio = ratio
		}
	}
}

func TestTableIRowsSorted(t *testing.T) {
	rows := TableI()
	for i := 1; i < 3; i++ {
		if rows[i].N <= rows[i-1].N {
			t.Error("r=5 block not increasing in n")
		}
	}
	for i := 4; i < 6; i++ {
		if rows[i].N <= rows[i-1].N {
			t.Error("r=10 block not increasing in n")
		}
	}
}
