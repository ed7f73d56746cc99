package blocklist

import (
	"fmt"
	"slices"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// This file implements the compiled longest-prefix-match engine: an
// immutable, cache-friendly flattening of the radix Trie into a 16-8-8
// multibit trie (DIR-24-8 style). The root table indexes the first 16
// address bits directly; /16s that contain longer rules hang a 256-slot
// 8-bit stride leaf off their root slot, and /24s that contain even
// longer rules hang a second 256-slot leaf off that. A lookup is then at
// most three dependent array loads — no pointer chasing, no branches per
// prefix bit, no allocation — which is what the serving hot path (DNSBL
// queries, flow scoring) needs at production traffic rates.
//
// Compilation expands every rule into the slots it covers, processing
// rules in ascending prefix-length order so longer (more specific)
// prefixes overwrite shorter ones. Rules shorter than /16 have no home of
// their own in the root table and are fan-out expanded across up to
// 2^(16-bits) root slots — the classic DIR-24-8 "slow path" rules. They
// stay fully matched (there is no coverage gap), but each one costs
// expansion work and root-table churn, so compilation counts them on the
// unclean_blocklist_compile_short_prefix_total series and logs them,
// keeping the fallback population visible on /metrics. A MatcherSet is
// the same table with list masks for its terminal values.

// slot encoding: a slot is either 0 (no match), a terminal match
// (entryIdx+1 in a Matcher, a mask index in a MatcherSet's), or
// leafFlag|leafNo (pointer to the 256-slot leaf starting at
// leafNo*leafSize in the leaves arena).
const (
	leafFlag = uint32(1) << 31
	leafSize = 256
	// maxRules bounds the rule count so entryIdx+1 can never collide
	// with leafFlag.
	maxRules = 1<<31 - 2
)

// Matcher is a compiled, immutable longest-prefix-match structure. Build
// one with Compile; lookups are allocation-free and safe for concurrent
// use. The zero value matches nothing but is not usable — always
// construct via Compile.
type Matcher struct {
	root    []uint32 // 1<<16 slots indexed by the top 16 address bits
	leaves  []uint32 // concatenated 256-slot stride-8 leaf tables
	entries []Entry  // rule payloads; slots store index+1
	short   int      // rules shorter than /16, fan-out expanded
}

// Compile flattens a trie into a Matcher. The trie is not retained and
// may be mutated afterwards without affecting the compiled structure.
func Compile(t *Trie) *Matcher {
	start := time.Now()
	entries := t.Entries()
	if len(entries) > maxRules {
		panic(fmt.Sprintf("blocklist: %d rules exceed the compiled matcher capacity", len(entries)))
	}
	// Ascending prefix length, so specific rules overwrite broad ones and
	// a rule can never encounter a leaf created by a more specific rule
	// at a level above its own (leaves are only created by longer
	// prefixes, which sort later).
	slices.SortFunc(entries, compareEntries)
	m := &Matcher{root: make([]uint32, 1<<16), entries: entries}
	for i := range entries {
		m.expand(entries[i].Block, uint32(i)+1)
	}
	m.compiled(start, len(entries))
	return m
}

// compiled records on /metrics a compilation, begun at start, that
// wrote the given number of rules.
func (m *Matcher) compiled(start time.Time, rules int) {
	compileSeconds.Observe(time.Since(start))
	compileRules.Add(uint64(rules))
	compileShortPrefix.Add(uint64(m.short))
	if m.short > 0 {
		logger.Debug("compiled matcher with fan-out expanded short-prefix rules",
			"rules", rules, "shortPrefixRules", m.short, "leafTables", len(m.leaves)/leafSize)
	}
}

// expand writes slot value v over every slot the block covers.
func (m *Matcher) expand(b netaddr.Block, v uint32) {
	base := uint32(b.Base())
	bits := b.Bits()
	switch {
	case bits <= 16:
		if bits < 16 {
			m.short++
		}
		lo := base >> 16
		for s, n := lo, uint32(1)<<(16-uint(bits)); s < lo+n; s++ {
			m.root[s] = v
		}
	case bits <= 24:
		l := m.leafForRoot(base >> 16)
		lo := l + (base>>8)&0xff
		for s, n := lo, uint32(1)<<(24-uint(bits)); s < lo+n; s++ {
			m.leaves[s] = v
		}
	default:
		l2 := m.leafForRoot(base >> 16)
		l3 := m.leafForLeaf(l2 + (base>>8)&0xff)
		lo := l3 + base&0xff
		for s, n := lo, uint32(1)<<(32-uint(bits)); s < lo+n; s++ {
			m.leaves[s] = v
		}
	}
}

// leafForRoot ensures root slot ri points at a leaf table and returns the
// leaf's base offset in the arena. A freshly allocated leaf inherits the
// slot's previous terminal value in every position, preserving the
// shorter-prefix match for addresses no longer rule refines.
func (m *Matcher) leafForRoot(ri uint32) uint32 {
	if v := m.root[ri]; v&leafFlag != 0 {
		return (v &^ leafFlag) * leafSize
	}
	l := m.newLeaf(m.root[ri])
	m.root[ri] = leafFlag | (l / leafSize)
	return l
}

// leafForLeaf is leafForRoot for a slot inside the leaves arena (the
// /16 → /24 level). It must re-index the arena after newLeaf because
// growing it may have moved the backing array.
func (m *Matcher) leafForLeaf(li uint32) uint32 {
	if v := m.leaves[li]; v&leafFlag != 0 {
		return (v &^ leafFlag) * leafSize
	}
	l := m.newLeaf(m.leaves[li])
	m.leaves[li] = leafFlag | (l / leafSize)
	return l
}

// newLeaf appends a 256-slot leaf filled with the inherited value and
// returns its base offset.
func (m *Matcher) newLeaf(fill uint32) uint32 {
	base := uint32(len(m.leaves))
	m.leaves = slices.Grow(m.leaves, leafSize)[:base+leafSize]
	leaf := m.leaves[base : base+leafSize]
	for i := range leaf {
		leaf[i] = fill
	}
	return base
}

// slotFor resolves the terminal slot value for an address: 0 for no
// match, the value its most specific rule wrote otherwise.
func (m *Matcher) slotFor(a netaddr.Addr) uint32 {
	u := uint32(a)
	v := m.root[u>>16]
	if v&leafFlag != 0 {
		v = m.leaves[(v&^leafFlag)*leafSize+(u>>8)&0xff]
		if v&leafFlag != 0 {
			v = m.leaves[(v&^leafFlag)*leafSize+u&0xff]
		}
	}
	return v
}

// Lookup returns the most specific rule covering a, if any. It performs
// no allocation and is safe for concurrent use.
func (m *Matcher) Lookup(a netaddr.Addr) (Entry, bool) {
	v := m.slotFor(a)
	if v == 0 {
		return Entry{}, false
	}
	return m.entries[v-1], true
}

// Blocks reports whether a is covered by any rule.
func (m *Matcher) Blocks(a netaddr.Addr) bool { return m.slotFor(a) != 0 }

// sizeBytes returns the memory footprint of the compiled tables.
func (m *Matcher) sizeBytes() int { return 4 * (len(m.root) + len(m.leaves)) }

// String summarizes the compiled structure.
func (m *Matcher) String() string {
	return fmt.Sprintf("matcher(%d rules, %d leaves, %d KiB)",
		len(m.entries), len(m.leaves)/leafSize, m.sizeBytes()/1024)
}

// MatcherSet compiles up to 32 blocklists into one Matcher whose rules
// carry list masks, so a single probe answers "which of the lists block
// this address" — the §6 sweep asks this for the nine C_n(R_bot-test)
// lists at once, turning nine passes over a flow log into one.
//
// Each distinct block is one rule. Its mask is its own lists' bits OR
// the mask of the most specific shorter rule that contains it. Prefixes
// nest, so the most specific rule covering an address lies inside every
// other rule covering it, and its mask is the OR over all of them. The
// matcher's slots index masks, the table of distinct rule masks, rather
// than entries.
type MatcherSet struct {
	m     Matcher  // slot values index masks; no entries
	masks []uint32 // interned rule masks; masks[0] = 0 is no match
	lists int
}

// CompileSet compiles several lists into a MatcherSet; bit i of a Mask
// result refers to lists[i]. At most 32 lists are supported.
func CompileSet(lists []*Trie) (*MatcherSet, error) {
	if len(lists) > 32 {
		return nil, fmt.Errorf("blocklist: MatcherSet supports at most 32 lists, got %d", len(lists))
	}
	start := time.Now()
	bits := map[netaddr.Block]uint32{}
	for i, t := range lists {
		t.Walk(func(e Entry) bool {
			bits[e.Block] |= 1 << uint(i)
			return true
		})
	}
	blocks := make([]netaddr.Block, 0, len(bits))
	for b := range bits {
		blocks = append(blocks, b)
	}
	slices.SortFunc(blocks, compareBlocks)
	ms, idx := newMatcherSet(len(lists)), map[uint32]uint32{}
	for _, b := range blocks {
		ms.add(b, bits[b], idx)
	}
	ms.m.compiled(start, len(blocks))
	return ms, nil
}

// SweepSet compiles the prefix sweep C_n(seed) for every n in [lo, hi]
// into one MatcherSet: bit n-lo of a Mask result reports membership in
// C_n(seed). This is the §6 blocking sweep as a single compiled probe.
// The seed's blocks are written straight in, one prefix length after
// another, with no trie between.
func SweepSet(seed ipset.Set, lo, hi int) (*MatcherSet, error) {
	if lo < 0 || hi > 32 || lo > hi {
		return nil, fmt.Errorf("blocklist: invalid sweep range [%d, %d]", lo, hi)
	}
	if hi-lo+1 > 32 {
		return nil, fmt.Errorf("blocklist: sweep range [%d, %d] exceeds 32 lists", lo, hi)
	}
	start := time.Now()
	ms, idx := newMatcherSet(hi-lo+1), map[uint32]uint32{}
	rules := 0
	for n := lo; n <= hi; n++ {
		blocks := seed.Blocks(n)
		for _, b := range blocks {
			ms.add(b, 1<<uint(n-lo), idx)
		}
		rules += len(blocks)
	}
	ms.m.compiled(start, rules)
	return ms, nil
}

// newMatcherSet returns an empty set over the given number of lists.
func newMatcherSet(lists int) *MatcherSet {
	return &MatcherSet{m: Matcher{root: make([]uint32, 1<<16)}, masks: []uint32{0}, lists: lists}
}

// add writes the rule for block b, listed by the lists in bits. Rules
// arrive in ascending prefix length and rules of equal length are
// disjoint, so the slot at b's base still holds the mask of the most
// specific shorter rule containing b. idx interns masks: it maps each
// mask in ms.masks but the first to its index.
func (ms *MatcherSet) add(b netaddr.Block, bits uint32, idx map[uint32]uint32) {
	mask := bits | ms.masks[ms.m.slotFor(b.Base())]
	v, ok := idx[mask]
	if !ok {
		v = uint32(len(ms.masks))
		ms.masks = append(ms.masks, mask)
		idx[mask] = v
	}
	ms.m.expand(b, v)
}

// Mask returns the bitmask of lists whose rules cover a (bit i set means
// lists[i] blocks a, or membership in C_{lo+i} for SweepSet). It is
// allocation-free and safe for concurrent use.
func (ms *MatcherSet) Mask(a netaddr.Addr) uint32 { return ms.masks[ms.m.slotFor(a)] }

// Lists returns the number of lists compiled in.
func (ms *MatcherSet) Lists() int { return ms.lists }
