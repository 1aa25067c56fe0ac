package experiment

import (
	"testing"

	"github.com/rgbproto/rgb/internal/analytic"
)

// TestCompareTableIRows pins every row of CompareTableI, the table
// `rgbsweep -compare table1` prints. The ring column, measured on the
// protocol, equals formula (6) on all six rows. The tree column equals
// formula (4) except on the two h=5 rows, which measure one hop fewer:
// formula (2) counts one representative edge too many there (see
// EXPERIMENTS.md).
func TestCompareTableIRows(t *testing.T) {
	want := []struct {
		n, r       int
		ring, tree uint64
	}{
		{25, 5, 35, 29},
		{125, 5, 185, 149},
		{625, 5, 935, 749},
		{100, 10, 120, 109},
		{1000, 10, 1220, 1099},
		{10000, 10, 12220, 10999},
	}
	cells := CompareTableI(0, 1)
	if len(cells) != len(want) {
		t.Fatalf("CompareTableI has %d rows, want %d", len(cells), len(want))
	}
	for i, w := range want {
		c := cells[i]
		if c.Row.N != w.n || c.Row.R != w.r {
			t.Fatalf("row %d is n=%d r=%d, want n=%d r=%d", i, c.Row.N, c.Row.R, w.n, w.r)
		}
		formula6 := uint64(analytic.HCNRing(c.Row.RingH, c.Row.R))
		if c.MeasuredRing != w.ring || formula6 != w.ring || c.DeviationRing != 0 {
			t.Errorf("n=%d r=%d: ring measured %d (deviation %g), formula (6) %d, want both %d",
				w.n, w.r, c.MeasuredRing, c.DeviationRing, formula6, w.ring)
		}
		formula4 := uint64(analytic.HCNTree(c.Row.TreeH, c.Row.R))
		wantTree := formula4
		if c.Row.TreeH == 5 {
			wantTree--
		}
		if c.MeasuredTree != w.tree || wantTree != w.tree {
			t.Errorf("n=%d r=%d h=%d: tree measured %d, formula (4) %d, want %d",
				w.n, w.r, c.Row.TreeH, c.MeasuredTree, formula4, w.tree)
		}
	}
}

// TestCompareTableIICells pins every cell of CompareTableII at the
// defaults of `rgbsweep -compare table2`: 50 000 trials a cell, seed 1.
// Each cell is the paper's (n, f, k) and carries formula (8). Formula
// (8) lies outside the estimate's 95 % interval on at most 3 of the 18
// cells, and on at most 1 of the three n=125 f=2 % cells, where it
// meets the upper edge of the k=3 interval.
func TestCompareTableIICells(t *testing.T) {
	if testing.Short() {
		t.Skip("Table II Monte-Carlo at 50 000 trials a cell skipped in -short")
	}
	const trials = 50000
	cells := CompareTableII(trials, 0, 1)
	if len(cells) != 18 {
		t.Fatalf("CompareTableII has %d cells, want 18", len(cells))
	}
	misses, misses125 := 0, 0
	i := 0
	for _, n := range []int{125, 1000} {
		for _, f := range []float64{0.001, 0.005, 0.02} {
			for k := 1; k <= 3; k++ {
				c := cells[i]
				i++
				if c.Row.N != n || c.Row.F != f || c.Row.K != k {
					t.Fatalf("cell %d is n=%d f=%g k=%d, want n=%d f=%g k=%d", i-1, c.Row.N, c.Row.F, c.Row.K, n, f, k)
				}
				if formula8 := analytic.ProbFWHierarchy(c.Row.H, c.Row.R, f, k); c.Row.FW != formula8 {
					t.Errorf("n=%d f=%g k=%d: cell carries %g, formula (8) is %g", n, f, k, c.Row.FW, formula8)
				}
				if c.MC.Trials != trials || c.MC.FW < c.MC.Lo || c.MC.FW > c.MC.Hi {
					t.Errorf("n=%d f=%g k=%d: %d trials, estimate %g outside its own interval [%g, %g]",
						n, f, k, c.MC.Trials, c.MC.FW, c.MC.Lo, c.MC.Hi)
				}
				if inCI := c.Row.FW >= c.MC.Lo && c.Row.FW <= c.MC.Hi; c.WithinCI != inCI {
					t.Errorf("n=%d f=%g k=%d: WithinCI %v, interval says %v", n, f, k, c.WithinCI, inCI)
				}
				if !c.WithinCI {
					misses++
					if n == 125 && f == 0.02 {
						misses125++
					}
					t.Logf("n=%d f=%g k=%d: formula (8) %.5f outside [%.5f, %.5f]", n, f, k, c.Row.FW, c.MC.Lo, c.MC.Hi)
				}
			}
		}
	}
	if misses > 3 {
		t.Errorf("%d of 18 cells outside their 95%% intervals, want at most 3", misses)
	}
	if misses125 > 1 {
		t.Errorf("%d of the 3 n=125 f=2%% cells outside their 95%% intervals, want at most 1", misses125)
	}
}
