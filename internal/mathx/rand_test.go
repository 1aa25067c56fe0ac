package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	// Must not be stuck at zero.
	var nonzero bool
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("zero-seeded RNG produced only zeros")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split children produced %d/100 identical outputs", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := NewRNG(13)
	const p, trials = 0.3, 200000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%g) mean = %g", p, got)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(17)
	const lambda, trials = 2.0, 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		v := r.ExpFloat64(lambda)
		if v < 0 {
			t.Fatalf("negative exponential draw %g", v)
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-1/lambda) > 0.02 {
		t.Fatalf("exp mean = %g, want %g", mean, 1/lambda)
	}
}

// Perm returns a Fisher-Yates permutation of [0, n): the Perm tests
// check Intn's range and uniformity through it.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Binomial sums n Bernoulli(p) draws: the Binomial tests check
// Bernoulli's mean through it.
func (r *RNG) Binomial(n int, p float64) int {
	k := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			k++
		}
	}
	return k
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	for n := 0; n <= 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := NewRNG(seed).Perm(n)
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialRange(t *testing.T) {
	r := NewRNG(29)
	for i := 0; i < 1000; i++ {
		k := r.Binomial(10, 0.5)
		if k < 0 || k > 10 {
			t.Fatalf("Binomial out of range: %d", k)
		}
	}
}

func TestBinomialMean(t *testing.T) {
	r := NewRNG(31)
	const n, p, trials = 50, 0.2, 50000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += r.Binomial(n, p)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-n*p) > 0.1 {
		t.Fatalf("binomial mean = %g, want %g", mean, float64(n)*p)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(37)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform(3,7) = %g", v)
		}
	}
}
