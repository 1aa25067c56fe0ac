package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogFactorialSmall(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		got := math.Exp(LogFactorial(n))
		if math.Abs(got-w)/w > 1e-12 {
			t.Errorf("exp(LogFactorial(%d)) = %g, want %g", n, got, w)
		}
	}
}

func TestLogFactorialLargeMatchesLgamma(t *testing.T) {
	for _, n := range []int{150, 500, 1200} {
		lg, _ := math.Lgamma(float64(n) + 1)
		if got := LogFactorial(n); math.Abs(got-lg) > 1e-9 {
			t.Errorf("LogFactorial(%d) = %g, want %g", n, got, lg)
		}
	}
}

// choose is C(n, k) from LogChoose, the form BinomialPMF uses.
func choose(n, k int) float64 { return math.Exp(LogChoose(n, k)) }

func TestChooseExactValues(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{31, 2, 465}, {111, 2, 6105}, {111, 1, 111}, {52, 5, 2598960},
	}
	for _, c := range cases {
		got := choose(c.n, c.k)
		if math.Abs(got-c.want)/c.want > 1e-9 {
			t.Errorf("choose(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestChooseOutOfRange(t *testing.T) {
	if choose(5, -1) != 0 || choose(5, 6) != 0 {
		t.Error("out-of-range choose should be 0")
	}
	if !math.IsInf(LogChoose(5, 6), -1) {
		t.Error("LogChoose out of range should be -Inf")
	}
}

func TestChooseSymmetryProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw % 60)
		k := 0
		if n > 0 {
			k = int(kRaw) % (n + 1)
		}
		a, b := choose(n, k), choose(n, n-k)
		return AlmostEqual(a, b, 1e-6*math.Max(a, 1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPascalIdentityProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw)%n + 1 // 1..n
		lhs := choose(n, k)
		rhs := choose(n-1, k-1) + choose(n-1, k)
		return AlmostEqual(lhs, rhs, 1e-6*math.Max(lhs, 1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 31, 111} {
		for _, p := range []float64{0.001, 0.02, 0.5, 0.97} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += BinomialPMF(n, k, p)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("PMF(n=%d,p=%g) sums to %g", n, p, sum)
			}
		}
	}
}

func TestBinomialPMFDegenerate(t *testing.T) {
	if BinomialPMF(5, 0, 0) != 1 || BinomialPMF(5, 3, 0) != 0 {
		t.Error("p=0 PMF wrong")
	}
	if BinomialPMF(5, 5, 1) != 1 || BinomialPMF(5, 4, 1) != 0 {
		t.Error("p=1 PMF wrong")
	}
	if BinomialPMF(5, -1, 0.5) != 0 || BinomialPMF(5, 6, 0.5) != 0 {
		t.Error("out-of-range PMF should be 0")
	}
}

func TestPowInt(t *testing.T) {
	cases := []struct{ b, e, want int }{
		{2, 0, 1}, {2, 10, 1024}, {5, 3, 125}, {10, 4, 10000},
		{1, 100, 1}, {0, 0, 1}, {0, 3, 0}, {3, 7, 2187},
	}
	for _, c := range cases {
		if got := PowInt(c.b, c.e); got != c.want {
			t.Errorf("PowInt(%d,%d) = %d, want %d", c.b, c.e, got, c.want)
		}
	}
}

func TestPowIntPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PowInt(2, -1)
}

func TestGeometricSum(t *testing.T) {
	cases := []struct{ r, m, want int }{
		{5, -1, 0}, {5, 0, 1}, {5, 1, 6}, {5, 2, 31}, {5, 3, 156},
		{10, 2, 111}, {10, 3, 1111}, {2, 4, 31}, {1, 4, 5},
	}
	for _, c := range cases {
		if got := GeometricSum(c.r, c.m); got != c.want {
			t.Errorf("GeometricSum(%d,%d) = %d, want %d", c.r, c.m, got, c.want)
		}
	}
}

func TestGeometricSumMatchesPowers(t *testing.T) {
	f := func(rRaw, mRaw uint8) bool {
		r := int(rRaw%9) + 2
		m := int(mRaw % 6)
		sum := 0
		for i := 0; i <= m; i++ {
			sum += PowInt(r, i)
		}
		return GeometricSum(r, m) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
