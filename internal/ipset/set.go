// Package ipset implements immutable, sorted sets of IPv4 addresses and the
// per-prefix CIDR block arithmetic the uncleanliness analyses are built on.
//
// A Set stores its addresses as roaring-style compressed containers keyed
// by the high 16 bits (see container.go): the paper-scale control report
// holds 47M addresses, which would cost ~188 MB as raw uint32s. Every
// analysis in the paper reduces to a handful of primitives on these sets:
// cardinality (|S|), the CIDR masking function C_n(S), block counting
// |C_n(S)|, block intersection |C_n(A) ∩ C_n(B)|, the inclusion relation
// i ⊏ C_n(S), and random sampling for control subsets. The containers
// answer them without decompressing wholesale; only WithinBlocks (the
// inclusion relation over a whole set) and the Monte-Carlo draw kernels
// materialize sorted slices, once per call, the kernels into a pooled
// buffer they reuse from call to call.
package ipset

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"unclean/internal/netaddr"
)

// Set is an immutable sorted set of IPv4 addresses. The zero value is the
// empty set and is ready to use.
type Set struct {
	c containers
}

// FromAddrs builds a Set from addresses in any order, deduplicating.
func FromAddrs(addrs []netaddr.Addr) Set {
	b := NewBuilder(len(addrs))
	for _, a := range addrs {
		b.Add(a)
	}
	return b.Build()
}

// FromUint32s builds a Set from raw uint32 addresses in any order,
// deduplicating. The input slice is not retained.
func FromUint32s(addrs []uint32) Set {
	c := make([]uint32, len(addrs))
	copy(c, addrs)
	return buildSorted(c)
}

// buildSorted sorts and deduplicates c in place and compresses it.
func buildSorted(c []uint32) Set {
	if len(c) >= radixCutoff {
		sortUint32s(c, make([]uint32, len(c)))
	} else {
		slices.Sort(c)
	}
	return Set{c: compressSorted(dedupSorted(c))}
}

func dedupSorted(c []uint32) []uint32 {
	if len(c) == 0 {
		return c
	}
	w := 1
	for i := 1; i < len(c); i++ {
		if c[i] != c[w-1] {
			c[w] = c[i]
			w++
		}
	}
	return c[:w]
}

// Parse builds a Set from a whitespace- or comma-separated list of
// dotted-quad addresses; convenient in tests and examples.
func Parse(s string) (Set, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == ','
	})
	b := NewBuilder(len(fields))
	for _, f := range fields {
		a, err := netaddr.ParseAddr(f)
		if err != nil {
			return Set{}, err
		}
		b.Add(a)
	}
	return b.Build(), nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) Set {
	set, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return set
}

// Compress returns s unchanged: every Set is built compressed. Its last
// caller is benchmark/paper.go, and it goes once that file stops calling
// it.
func (s Set) Compress() Set { return s }

// raw materializes the membership as a fresh sorted slice, which
// WithinBlocks reads once per call.
func (s Set) raw() []uint32 {
	return s.c.appendAddrs(make([]uint32, 0, s.c.n))
}

// FootprintBytes approximates the heap bytes held by the set's
// containers — the number the compressed form exists to shrink.
func (s Set) FootprintBytes() int { return s.c.memBytes() }

// Len returns |S|, the number of addresses in the set.
func (s Set) Len() int { return s.c.n }

// IsEmpty reports whether the set has no addresses.
func (s Set) IsEmpty() bool { return s.c.n == 0 }

// At returns the i-th smallest address. This walks the container
// directory (O(containers)); iterate with Each instead of an indexed
// loop.
func (s Set) At(i int) netaddr.Addr {
	idx := [1]uint32{uint32(i)}
	var out [1]uint32
	s.c.selectInto(idx[:], out[:])
	return netaddr.Addr(out[0])
}

// Contains reports whether a is a member of the set.
func (s Set) Contains(a netaddr.Addr) bool {
	if i := s.c.find(uint16(uint32(a) >> 16)); i >= 0 {
		return s.c.cs[i].contains(uint16(uint32(a)))
	}
	return false
}

// Each calls fn for every address in ascending order; it stops early if fn
// returns false.
func (s Set) Each(fn func(netaddr.Addr) bool) {
	for i := range s.c.cs {
		if !s.c.cs[i].each(fn) {
			return
		}
	}
}

// Addrs returns a copy of the membership as a slice of addresses.
func (s Set) Addrs() []netaddr.Addr {
	out := make([]netaddr.Addr, 0, s.Len())
	s.Each(func(a netaddr.Addr) bool {
		out = append(out, a)
		return true
	})
	return out
}

// Equal reports whether two sets have identical membership.
func (s Set) Equal(other Set) bool { return equalContainers(&s.c, &other.c) }

// String renders small sets fully and large sets as a cardinality summary.
func (s Set) String() string {
	n := s.Len()
	if n <= 8 {
		parts := make([]string, 0, n)
		s.Each(func(a netaddr.Addr) bool {
			parts = append(parts, a.String())
			return true
		})
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return fmt.Sprintf("{|S|=%d, %s..%s}", n, s.At(0), s.At(n-1))
}

// Builder accumulates addresses for a Set.
type Builder struct {
	addrs []uint32
	// sorted tracks whether addrs is ascending (duplicates allowed), so
	// Build can skip the sort for already-ordered input — the common case
	// when whole sets are appended with AddSet.
	sorted bool
}

// NewBuilder returns a Builder with capacity for sizeHint addresses.
func NewBuilder(sizeHint int) *Builder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Builder{addrs: make([]uint32, 0, sizeHint), sorted: true}
}

// Grow reserves capacity for at least n more addresses, so a sequence
// of Add/AddSet calls of known total size performs one allocation.
func (b *Builder) Grow(n int) {
	if n <= 0 {
		return
	}
	if need := len(b.addrs) + n; need > cap(b.addrs) {
		grown := make([]uint32, len(b.addrs), need)
		copy(grown, b.addrs)
		b.addrs = grown
	}
}

// Add inserts an address; duplicates are removed at Build time.
func (b *Builder) Add(a netaddr.Addr) {
	if b.sorted && len(b.addrs) > 0 && uint32(a) < b.addrs[len(b.addrs)-1] {
		b.sorted = false
	}
	b.addrs = append(b.addrs, uint32(a))
}

// AddSet inserts every address of another set, growing capacity once.
// Appending sets in ascending order (or into an empty builder) keeps
// the builder sorted, so Build skips its sort pass entirely.
func (b *Builder) AddSet(s Set) {
	n := s.Len()
	if n == 0 {
		return
	}
	b.Grow(n)
	if b.sorted && len(b.addrs) > 0 && uint32(s.At(0)) < b.addrs[len(b.addrs)-1] {
		b.sorted = false
	}
	b.addrs = s.c.appendAddrs(b.addrs)
}

// Len returns the number of addresses added so far (including duplicates).
func (b *Builder) Len() int { return len(b.addrs) }

// Build sorts (unless the input arrived sorted), deduplicates and
// compresses the addresses into a Set. The Builder is reset and may be
// reused.
func (b *Builder) Build() Set {
	var s Set
	if b.sorted {
		s = Set{c: compressSorted(dedupSorted(b.addrs))}
	} else {
		s = buildSorted(b.addrs)
	}
	b.addrs = nil
	b.sorted = true
	return s
}

// Union returns s ∪ other, computed container-wise.
func (s Set) Union(other Set) Set {
	if s.IsEmpty() {
		return other
	}
	if other.IsEmpty() {
		return s
	}
	return Set{c: unionContainers(&s.c, &other.c)}
}

// Intersect returns s ∩ other, computed container-wise.
func (s Set) Intersect(other Set) Set {
	return Set{c: intersectContainers(&s.c, &other.c)}
}

// Difference returns s \ other, computed container-wise.
func (s Set) Difference(other Set) Set {
	if other.IsEmpty() {
		return s
	}
	return Set{c: differenceContainers(&s.c, &other.c)}
}

// Filter returns the subset of addresses for which keep returns true.
// Its working list is sized once, to the whole set.
func (s Set) Filter(keep func(netaddr.Addr) bool) Set {
	out := make([]uint32, 0, s.Len())
	s.Each(func(a netaddr.Addr) bool {
		if keep(a) {
			out = append(out, uint32(a))
		}
		return true
	})
	return Set{c: compressSorted(out)}
}

// commonPrefixLen returns the number of leading bits a and b share.
func commonPrefixLen(a, b uint32) int {
	return bits.LeadingZeros32(a ^ b)
}
