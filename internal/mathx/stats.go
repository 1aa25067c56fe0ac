package mathx

import (
	"math"
	"sort"
)

// Summary holds streaming summary statistics over float64 observations
// using Welford's online algorithm, which is numerically stable for
// long simulation runs.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations recorded.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance, or 0 with fewer than
// two observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified. It
// panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Quantile of empty slice")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion: successes k out of n trials at confidence level given by
// the normal quantile z (1.96 for ~95%). It is well behaved for
// proportions near 0 and 1, where the Monte-Carlo Function-Well
// estimates live.
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// AlmostEqual reports whether a and b agree to within tol in absolute
// terms or 1e-12 relative terms, whichever is looser.
func AlmostEqual(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-12*scale
}
