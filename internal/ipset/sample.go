package ipset

import (
	"slices"

	"unclean/internal/stats"
)

// Sample returns a uniformly random subset of exactly k distinct addresses.
// This generates the paper's control subsets: "1000 randomly generated
// subsets of R_control" (§4.2). It panics if k exceeds the set size.
//
// For k much smaller than |S| it uses Floyd's algorithm (O(k) expected);
// when k approaches |S| it switches to a sparse partial Fisher-Yates to
// avoid rejection stalls. Both mark ranks on a pooled scratch arena's
// bitmap, whose walk yields them in ascending order, and one forward
// select walk over the containers maps them to members, so the set is
// never decompressed.
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
	members := make([]uint32, 0, k)
	a := getArena()
	a.drawRanks(n, k, rng, func(rank int) { members = append(members, uint32(rank)) })
	putArena(a)
	s.c.selectInto(members, members) // ranks to members, in place
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
// forks. Each worker owns a scratch arena; a draw walks its ranks in
// ascending order and feeds each member straight into a prefixTally, so
// a steady-state draw keeps no sample and performs zero heap allocations.
func (s Set) SampleBlocks(k, size, loBits, hiBits int, rng *stats.RNG) [][]float64 {
	return s.sampleTallies(nil, k, size, loBits, hiBits, rng)
}

// SampleIntersections draws k control subsets of size size and returns, for
// each prefix length in [loBits, hiBits], the distribution of
// |C_n(subset) ∩ C_n(target)| across draws. This is the control side of the
// temporal uncleanliness test (Figures 4 and 5). Draws run concurrently
// under the same deterministic forking scheme — and the same zero-allocation
// arena walk — as SampleBlocks.
func (s Set) SampleIntersections(target Set, k, size, loBits, hiBits int, rng *stats.RNG) [][]float64 {
	return s.sampleTallies(&target, k, size, loBits, hiBits, rng)
}

// sampleTallies runs k draws of size members and returns the matrix
// [n-loBits][draw] of |C_n(draw)|, or of |C_n(draw) ∩ C_n(target)| when
// target is not nil. Every argument is checked here, on the caller's
// goroutine, before any draw starts: a panic inside a pool helper would
// kill the process.
func (s Set) sampleTallies(target *Set, k, size, loBits, hiBits int, rng *stats.RNG) [][]float64 {
	checkPrefixRange(loBits, hiBits)
	if k < 0 || size < 0 || size > s.Len() {
		panic("ipset: sample size out of range")
	}
	out := make([][]float64, hiBits-loBits+1)
	for i := range out {
		out[i] = make([]float64, k)
	}
	// The population's addresses, then the target's, filled into one
	// pooled buffer that every draw of this call shares.
	pop := populationPool.Get().(*[]uint32)
	need := s.Len()
	if target != nil {
		need += target.Len()
	}
	addrs := s.c.appendAddrs(slices.Grow((*pop)[:0], need))
	var targetAddrs []uint32
	if target != nil {
		targetAddrs = target.c.appendAddrs(addrs)[len(addrs):]
	}
	arenas := make([]*sampleArena, stats.Workers(k))
	for i := range arenas {
		arenas[i] = getArena()
	}
	stats.ForEachDraw(k, rng, func(worker, draw int, drawRNG *stats.RNG) {
		var t prefixTally
		arenas[worker].drawRanks(len(addrs), size, drawRNG, func(rank int) {
			if target == nil {
				t.add(addrs[rank])
			} else {
				t.addMeet(addrs[rank], targetAddrs)
			}
		})
		var counts [33]int
		t.counts(loBits, hiBits, counts[:])
		for i := range out {
			out[i][draw] = float64(counts[i])
		}
	})
	for _, a := range arenas {
		putArena(a)
	}
	*pop = addrs[:0]
	populationPool.Put(pop)
	return out
}
