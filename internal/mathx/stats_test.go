package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", got)
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %g, want %g", got, 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %g/%g", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Error("empty summary should be all zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Variance() != 0 || s.StdDev() != 0 {
		t.Error("single observation has zero variance")
	}
	if s.Min() != 3.5 || s.Max() != 3.5 {
		t.Error("min/max of single observation")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.9, 9.1},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 20+r.Intn(50))
		for i := range xs {
			xs[i] = r.Float64() * 1000
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%g, %g] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval too wide: [%g, %g]", lo, hi)
	}
	// All successes: interval must stay within [0,1] and include values
	// near 1.
	lo, hi = WilsonInterval(100, 100, 1.96)
	if hi < 0.999 || hi > 1 {
		t.Errorf("hi = %g, want close to (and at most) 1", hi)
	}
	if lo < 0.9 {
		t.Errorf("lo = %g, too loose for 100/100", lo)
	}
	lo, hi = WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty trials should be [0,1], got [%g,%g]", lo, hi)
	}
}

func TestWilsonIntervalShrinksWithN(t *testing.T) {
	lo1, hi1 := WilsonInterval(30, 100, 1.96)
	lo2, hi2 := WilsonInterval(3000, 10000, 1.96)
	if (hi2 - lo2) >= (hi1 - lo1) {
		t.Error("interval should shrink as n grows")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-13, 1e-12) {
		t.Error("tiny difference should be equal")
	}
	if AlmostEqual(1.0, 1.1, 1e-3) {
		t.Error("0.1 apart should not be equal at tol 1e-3")
	}
	if !AlmostEqual(1e15, 1e15+1, 0) {
		t.Error("relative tolerance should kick in for large values")
	}
}
