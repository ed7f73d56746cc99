package ipset

import (
	"sort"

	"unclean/internal/netaddr"
)

// BlockCount returns |C_n(S)|: the number of distinct n-bit CIDR blocks
// containing members of the set, read off container metadata (keys for
// n <= 16, per-container masked counts for longer prefixes) without
// decompressing.
func (s Set) BlockCount(n int) int {
	maskFor(n) // validate n
	return s.c.blockCount(n)
}

// BlockCounts returns |C_n(S)| for every n in [lo, hi]: the element at
// index n-lo is the count at prefix length n. One walk over the members
// serves every n (see blockCountsFromPairs).
func (s Set) BlockCounts(lo, hi int) []int {
	if lo < 0 || hi > 32 || lo > hi {
		panic("ipset: invalid prefix range")
	}
	var pairs [33]int
	var prev uint32
	first := true
	s.Each(func(a netaddr.Addr) bool {
		if !first {
			pairs[commonPrefixLen(prev, uint32(a))]++
		}
		prev, first = uint32(a), false
		return true
	})
	out := make([]int, hi-lo+1)
	blockCountsFromPairs(&pairs, s.Len(), lo, hi, out)
	return out
}

// blockCountsInto is the allocation-free BlockCounts over a sorted,
// duplicate-free slice, writing the counts for [lo, hi] into out
// (len(out) >= hi-lo+1). The draw kernels call it against arena scratch.
func blockCountsInto(addrs []uint32, lo, hi int, out []int) {
	var pairs [33]int
	for i := 1; i < len(addrs); i++ {
		pairs[commonPrefixLen(addrs[i-1], addrs[i])]++
	}
	blockCountsFromPairs(&pairs, len(addrs), lo, hi, out)
}

// blockCountsFromPairs writes |C_n| for every n in [lo, hi] into out for
// a set of size members whose consecutive pairs number pairs[k] with a
// longest common prefix of exactly k bits (k = 32 cannot occur). It
// uses the identity |C_n(S)| = 1 + #{consecutive pairs with common
// prefix < n}.
func blockCountsFromPairs(pairs *[33]int, size, lo, hi int, out []int) {
	out = out[:hi-lo+1]
	if size == 0 {
		clear(out)
		return
	}
	below := 0 // pairs with a common prefix shorter than n
	k := 0
	for n := 0; n <= hi; n++ {
		for ; k < n; k++ {
			below += pairs[k]
		}
		if n >= lo {
			out[n-lo] = 1 + below
		}
	}
}

// Blocks returns C_n(S): the distinct n-bit blocks containing members of
// the set, in ascending order.
func (s Set) Blocks(n int) []netaddr.Block {
	mask := maskFor(n)
	var out []netaddr.Block
	var prev uint32
	have := false
	s.Each(func(a netaddr.Addr) bool {
		p := uint32(a) & mask
		if !have || p != prev {
			out = append(out, netaddr.Addr(p).Block(n))
			prev = p
			have = true
		}
		return true
	})
	return out
}

// MaskedSet returns the set C_n(S) represented as a Set of block base
// addresses (one per distinct block).
func (s Set) MaskedSet(n int) Set {
	mask := maskFor(n)
	out := make([]uint32, 0, min(s.Len(), 1024))
	var prev uint32
	have := false
	s.Each(func(a netaddr.Addr) bool {
		p := uint32(a) & mask
		if !have || p != prev {
			out = append(out, p)
			prev = p
			have = true
		}
		return true
	})
	return Set{c: compressSorted(out)}
}

// BlockIntersectCount returns |C_n(S) ∩ C_n(other)|: how many n-bit blocks
// contain members of both sets. This is the predictive-capacity statistic
// of the temporal uncleanliness test (Eq. 4), computed container-wise
// from masked-presence bitmaps.
func (s Set) BlockIntersectCount(other Set, n int) int {
	maskFor(n) // validate n
	return blockIntersectCountContainers(&s.c, &other.c, n)
}

// blockIntersectCount is |C_n(x) ∩ C_n(y)| over sorted slices, for
// mask = C_n's mask; the draw kernels call it against arena scratch.
func blockIntersectCount(x, y []uint32, mask uint32) int {
	i, j := 0, 0
	count := 0
	for i < len(x) && j < len(y) {
		a, b := x[i]&mask, y[j]&mask
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			count++
			// Skip the rest of this block on both sides.
			for i < len(x) && x[i]&mask == a {
				i++
			}
			for j < len(y) && y[j]&mask == b {
				j++
			}
		}
	}
	return count
}

// InBlocks reports whether a resides in one of the n-bit blocks covering
// the set: the paper's inclusion relation a ⊏ C_n(S) (Eq. 2 restricted to a
// single prefix length).
func (s Set) InBlocks(a netaddr.Addr, n int) bool {
	mask := maskFor(n)
	lo := uint32(a) & mask
	hi := lo | ^mask
	loKey, hiKey := uint16(lo>>16), uint16(hi>>16)
	// First container whose key could fall in the block's key range.
	cs := s.c.cs
	i := sort.Search(len(cs), func(i int) bool { return cs[i].key >= loKey })
	for ; i < len(cs) && cs[i].key <= hiKey; i++ {
		cLo, cHi := uint16(0), uint16(0xffff)
		if cs[i].key == loKey {
			cLo = uint16(lo)
		}
		if cs[i].key == hiKey {
			cHi = uint16(hi)
		}
		if cs[i].anyInRange(cLo, cHi) {
			return true
		}
	}
	return false
}

// WithinBlocks returns the subset of s whose addresses fall inside the
// n-bit blocks covering cover: {a ∈ s : a ⊏ C_n(cover)}. This is how the
// blocking analysis materializes the candidate population.
func (s Set) WithinBlocks(cover Set, n int) Set {
	mask := maskFor(n)
	sa, ca := s.raw(), cover.raw()
	var out []uint32
	i, j := 0, 0
	for i < len(sa) && j < len(ca) {
		a, b := sa[i]&mask, ca[j]&mask
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			for i < len(sa) && sa[i]&mask == a {
				out = append(out, sa[i])
				i++
			}
		}
	}
	return Set{c: compressSorted(out)}
}

// BlockPopulations returns, for each distinct n-bit block in the set, the
// number of member addresses it holds, keyed by block. Used by density
// diagnostics and the simulator's ground-truth assertions.
func (s Set) BlockPopulations(n int) map[netaddr.Block]int {
	mask := maskFor(n)
	out := make(map[netaddr.Block]int)
	s.Each(func(a netaddr.Addr) bool {
		out[netaddr.Addr(uint32(a)&mask).Block(n)]++
		return true
	})
	return out
}

func maskFor(n int) uint32 {
	if n < 0 || n > 32 {
		panic("ipset: prefix length out of range")
	}
	if n == 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(n))
}
