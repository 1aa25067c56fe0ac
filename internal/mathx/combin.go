package mathx

import "math"

// LogFactorial returns ln(n!). Values up to a small threshold are
// tabulated exactly; larger inputs use math.Lgamma, which is accurate
// to within a few ulps for this range.
func LogFactorial(n int) float64 {
	if n < 0 {
		panic("mathx: LogFactorial of negative n")
	}
	if n < len(logFactTable) {
		return logFactTable[n]
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// logFactTable caches ln(k!) for small k, filled at init.
var logFactTable = func() [128]float64 {
	var t [128]float64
	acc := 0.0
	for i := 2; i < len(t); i++ {
		acc += math.Log(float64(i))
		t[i] = acc
	}
	return t
}()

// LogChoose returns ln(C(n, k)), and -Inf when the coefficient is zero
// (k < 0 or k > n).
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// BinomialPMF returns P[X = k] for X ~ Binomial(n, p), computed in log
// space so extreme tail values do not underflow prematurely.
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	logp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(logp)
}

// PowInt returns base^exp for non-negative integer exponents using
// binary exponentiation. It exists because the hop-count formulas use
// many small integer powers and math.Pow's rounding on exact integers
// is best avoided in table reproduction.
func PowInt(base, exp int) int {
	if exp < 0 {
		panic("mathx: PowInt with negative exponent")
	}
	result := 1
	b := base
	for e := exp; e > 0; e >>= 1 {
		if e&1 == 1 {
			result *= b
		}
		b *= b
	}
	return result
}

// GeometricSum returns sum_{i=0}^{m} r^i for integer r >= 0, m >= -1.
// GeometricSum(r, -1) is 0 by convention (empty sum), matching the
// inner sums in the paper's formulas (2) and (4).
func GeometricSum(r, m int) int {
	if m < 0 {
		return 0
	}
	sum := 0
	term := 1
	for i := 0; i <= m; i++ {
		sum += term
		term *= r
	}
	return sum
}
