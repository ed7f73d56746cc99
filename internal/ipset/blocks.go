package ipset

import (
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
// serves every n (see prefixTally).
func (s Set) BlockCounts(lo, hi int) []int {
	checkPrefixRange(lo, hi)
	var t prefixTally
	s.Each(func(a netaddr.Addr) bool {
		t.add(uint32(a))
		return true
	})
	out := make([]int, hi-lo+1)
	t.counts(lo, hi, out)
	return out
}

// prefixTally counts CIDR blocks at every prefix length in one ascending
// walk over a set x. Member x_i opens a new /n block exactly when
// n > p_i, where p_i is the common prefix length of x_i and x_{i-1} (-1
// for i = 0), so |C_n(x)| = #{i : p_i < n}. Against a sorted set y, x_i's
// block holds a member of y exactly when n <= q_i, where q_i is the
// longer of x_i's common prefixes with its neighbours in y (32 when
// x_i ∈ y), so |C_n(x) ∩ C_n(y)| = #{i : p_i < n <= q_i}. Each member
// adds its range (p_i, q_i] to a difference array over n, which one
// prefix sum turns into the counts at every n.
type prefixTally struct {
	diff [34]int // the count at n is diff[0] + ... + diff[n]
	prev uint32  // the previous member
	seen bool    // whether prev is set
	j    int     // addMeet's position in y: y[:j] < the last member
}

// add feeds x, the next member in ascending order, toward |C_n(x)|. Its
// span is (p, 32], whose end mark diff[33] no count reads, so add only
// opens it.
func (t *prefixTally) add(x uint32) {
	t.diff[t.lead(x)+1]++
}

// addMeet feeds x, the next member in ascending order, toward
// |C_n(x) ∩ C_n(y)|. Every call of one tally must pass the same y.
func (t *prefixTally) addMeet(x uint32, y []uint32) {
	p := t.lead(x)
	t.j = seek(y, t.j, x)
	q := -1
	if t.j < len(y) {
		q = commonPrefixLen(x, y[t.j])
	}
	if t.j > 0 {
		q = max(q, commonPrefixLen(x, y[t.j-1]))
	}
	t.span(p, q)
}

// lead returns p for x and records x as the previous member.
func (t *prefixTally) lead(x uint32) int {
	p := -1
	if t.seen {
		p = commonPrefixLen(t.prev, x)
	}
	t.prev, t.seen = x, true
	return p
}

// span counts one at every n with p < n <= q.
func (t *prefixTally) span(p, q int) {
	if p < q {
		t.diff[p+1]++
		t.diff[q+1]--
	}
}

// counts writes the count at every n in [lo, hi] into out[n-lo].
func (t *prefixTally) counts(lo, hi int, out []int) {
	c := 0
	for n := 0; n <= hi; n++ {
		c += t.diff[n]
		if n >= lo {
			out[n-lo] = c
		}
	}
}

// seek returns the least j >= from with y[j] >= v, or len(y). It gallops
// from from, so a walk of ascending v pays O(log gap) per step rather
// than a search of all of y.
func seek(y []uint32, from int, v uint32) int {
	lo, hi, step := from, from, 1
	for hi < len(y) && y[hi] < v {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(y))
	for lo < hi { // y[from:lo] < v, and hi == len(y) or y[hi] >= v
		m := int(uint(lo+hi) >> 1)
		if y[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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

// checkPrefixRange panics unless [lo, hi] is a prefix range within [0, 32].
func checkPrefixRange(lo, hi int) {
	if lo < 0 || hi > 32 || lo > hi {
		panic("ipset: invalid prefix range")
	}
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
