// Package mathx provides the deterministic random-number generation,
// combinatorics and summary statistics used throughout the RGB
// reproduction. Everything here is seedable and allocation-free on the
// hot paths so that simulations are bit-reproducible and cheap.
package mathx

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator.
//
// The state update is xoshiro256** seeded via SplitMix64, the same
// construction used by the Go runtime for non-crypto randomness. A zero
// RNG is not valid; use NewRNG.
type RNG struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only to expand seeds into full xoshiro state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64 derives a well-mixed child seed from (seed, stream): the
// one-step SplitMix64 output of seed advanced by stream increments.
// It is the canonical way to split one base seed into independent
// deterministic streams (per experiment cell, per cluster group)
// without the streams correlating.
func SplitMix64(seed, stream uint64) uint64 {
	state := seed + 0x9e3779b97f4a7c15*stream
	return splitMix64(&state)
}

// NewRNG returns a generator deterministically derived from seed.
// Two RNGs built from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent child generator. The child stream is a
// deterministic function of the parent state, and the parent advances,
// so successive Split calls give unrelated streams. Useful for giving
// each simulated node its own generator while keeping global
// reproducibility.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	// Lemire's unbiased bounded generation.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with rate
// lambda (mean 1/lambda). It panics if lambda <= 0.
func (r *RNG) ExpFloat64(lambda float64) float64 {
	if lambda <= 0 {
		panic("mathx: ExpFloat64 with non-positive rate")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
