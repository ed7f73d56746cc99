package ipset

import (
	"unclean/internal/stats"
)

// Sample returns a uniformly random subset of exactly k distinct addresses.
// This generates the paper's control subsets: "1000 randomly generated
// subsets of R_control" (§4.2). It panics if k exceeds the set size.
//
// For k much smaller than |S| it uses Floyd's algorithm (O(k) expected);
// when k approaches |S| it switches to a sparse partial Fisher-Yates to
// avoid rejection stalls. Both draw ranks on a pooled scratch arena, and
// one forward select walk over the containers maps them to members, so
// the set is never decompressed.
func (s Set) Sample(k int, rng *stats.RNG) Set {
	n := s.Len()
	if k < 0 || k > n {
		panic("ipset: sample size out of range")
	}
	if k == 0 {
		return Set{}
	}
	if k == n {
		return s // immutable, safe to share
	}
	a := getArena()
	members := make([]uint32, k)
	s.c.selectInto(a.sampleIndicesSorted(n, k, rng), members)
	putArena(a)
	return Set{c: compressSorted(members)}
}

// SampleBlocks draws k control subsets of size size and returns, for each
// prefix length in [loBits, hiBits], the distribution of |C_n(subset)|
// across the draws. The result is indexed [n-loBits][draw]. This is the
// inner loop of the empirical density estimate, shared by Figures 2 and 3.
//
// Draws run concurrently on the shared worker pool: each draw's generator
// is forked from rng up front (in draw order), so results are
// deterministic and identical to a sequential evaluation of the same
// forks. Each worker owns a scratch arena and every draw runs the fused
// sample-sort-count kernel against it, so a steady-state draw performs
// zero heap allocations.
func (s Set) SampleBlocks(k, size, loBits, hiBits int, rng *stats.RNG) [][]float64 {
	if loBits < 0 || hiBits > 32 || loBits > hiBits {
		panic("ipset: invalid prefix range")
	}
	prefixes := hiBits - loBits + 1
	out := make([][]float64, prefixes)
	for i := range out {
		out[i] = make([]float64, k)
	}
	addrs := s.raw() // one materialization shared by every draw
	arenas := newArenas(stats.Workers(k), size, prefixes)
	stats.ForEachDraw(k, rng, func(worker, draw int, drawRNG *stats.RNG) {
		a := arenas[worker]
		sub := a.sampleSorted(addrs, size, drawRNG)
		counts := a.counts[:prefixes]
		blockCountsInto(sub, loBits, hiBits, counts)
		for i, c := range counts {
			out[i][draw] = float64(c)
		}
	})
	releaseArenas(arenas)
	return out
}

// SampleIntersections draws k control subsets of size size and returns, for
// each prefix length in [loBits, hiBits], the distribution of
// |C_n(subset) ∩ C_n(target)| across draws. This is the control side of the
// temporal uncleanliness test (Figures 4 and 5). Draws run concurrently
// under the same deterministic forking scheme — and the same zero-allocation
// arena kernels — as SampleBlocks.
func (s Set) SampleIntersections(target Set, k, size, loBits, hiBits int, rng *stats.RNG) [][]float64 {
	if loBits < 0 || hiBits > 32 || loBits > hiBits {
		panic("ipset: invalid prefix range")
	}
	prefixes := hiBits - loBits + 1
	out := make([][]float64, prefixes)
	for i := range out {
		out[i] = make([]float64, k)
	}
	addrs, targetAddrs := s.raw(), target.raw()
	arenas := newArenas(stats.Workers(k), size, prefixes)
	stats.ForEachDraw(k, rng, func(worker, draw int, drawRNG *stats.RNG) {
		a := arenas[worker]
		sub := a.sampleSorted(addrs, size, drawRNG)
		for n := loBits; n <= hiBits; n++ {
			out[n-loBits][draw] = float64(blockIntersectCount(sub, targetAddrs, maskFor(n)))
		}
	})
	releaseArenas(arenas)
	return out
}

// newArenas checks out one warmed scratch arena per worker.
func newArenas(workers, size, prefixes int) []*sampleArena {
	arenas := make([]*sampleArena, workers)
	for i := range arenas {
		arenas[i] = getArena()
		arenas[i].ensure(size, prefixes)
	}
	return arenas
}

func releaseArenas(arenas []*sampleArena) {
	for _, a := range arenas {
		putArena(a)
	}
}
