// Package stats provides the deterministic random-number machinery and the
// small statistical toolkit (quantiles, boxplot summaries, samplers,
// empirical distributions) that the uncleanliness analyses need.
//
// Everything is seed-deterministic: two runs with the same seed produce the
// same worlds, reports, and experiment outputs. That is essential for the
// reproduction harness — EXPERIMENTS.md quotes concrete numbers.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a SplitMix64 pseudo-random generator. It is tiny, fast, passes
// BigCrush, and — unlike math/rand's global state — is explicit and
// shareable by value snapshotting.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds produce
// uncorrelated streams for practical purposes.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child generator from the current state. The
// child's stream does not overlap the parent's continued stream: the parent
// advances once, and the child is seeded from a hash of that draw and the
// label, so identical labels at different points still diverge.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.forkSeed(label))
}

// forkSeed derives the child seed of Fork without allocating, so batch
// forking (stats.ForEachDraw) can fork by value into one backing array.
func (r *RNG) forkSeed(label uint64) uint64 {
	return mix64(r.Uint64() ^ mix64(label))
}

// gamma is SplitMix64's state increment: the state after t outputs is
// the seed plus t·gamma.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix64(r.state)
}

// Advance moves the generator n outputs ahead in O(1), to where n calls
// of Uint64 would leave it.
func (r *RNG) Advance(n uint64) {
	r.state += n * gamma
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// IntnOnce is Intn from exactly one output. ok is false when Intn would
// reject that output and draw again, which happens with probability
// below n/2^64; v is then meaningless. It panics if n <= 0.
func (r *RNG) IntnOnce(n int) (v int, ok bool) {
	if n <= 0 {
		panic("stats: IntnOnce with non-positive n")
	}
	u, ok := r.uint64nOnce(uint64(n))
	return int(u), ok
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	for {
		if v, ok := r.uint64nOnce(n); ok {
			return v
		}
	}
}

// uint64nOnce is one round of Uint64n: it consumes one output and
// reports whether Lemire's method accepts it. Powers of two never
// reject. The rejection threshold 2^64 mod n is below n, so its division
// runs only for the rare low product under n.
func (r *RNG) uint64nOnce(n uint64) (uint64, bool) {
	v := r.Uint64()
	if n&(n-1) == 0 {
		return v & (n - 1), true
	}
	hi, lo := bits.Mul64(v, n)
	return hi, lo >= n || lo >= -n%n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n) via Fisher-Yates.
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
