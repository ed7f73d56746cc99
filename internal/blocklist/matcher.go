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
// keeping the fallback population visible on /metrics.

// slot encoding: a slot is either 0 (no match), entryIdx+1 (terminal
// match), or leafFlag|leafNo (pointer to the 256-slot leaf starting at
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
	slices.SortFunc(entries, func(a, b Entry) int {
		if c := a.Block.Bits() - b.Block.Bits(); c != 0 {
			return c
		}
		if a.Block.Base() != b.Block.Base() {
			if a.Block.Base() < b.Block.Base() {
				return -1
			}
			return 1
		}
		return 0
	})
	m := &Matcher{root: make([]uint32, 1<<16), entries: entries}
	for i := range entries {
		m.expand(entries[i].Block, uint32(i)+1)
	}
	compileSeconds.Observe(time.Since(start))
	compileRules.Add(uint64(len(entries)))
	compileShortPrefix.Add(uint64(m.short))
	if m.short > 0 {
		logger.Debug("compiled matcher with fan-out expanded short-prefix rules",
			"rules", len(entries), "shortPrefixRules", m.short, "leafTables", len(m.leaves)/leafSize)
	}
	return m
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
// match, entryIdx+1 otherwise.
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

// MatcherSet compiles up to 32 blocklists into one 16-8-8 structure
// whose terminal payload is a bitmask over the lists, so a single probe
// answers "which of the lists block this address" — the §6 sweep asks
// this for the nine C_n(R_bot-test) lists at once, turning nine passes
// over a flow log into one.
type MatcherSet struct {
	root   []uint32
	leaves []uint32
	masks  []uint32 // dedup'd bitmask payloads; slots store index+1
	lists  int
}

// setEntry is one (block, list) pair during MatcherSet compilation.
type setEntry struct {
	block netaddr.Block
	bit   uint32
}

// CompileSet compiles several lists into a MatcherSet; bit i of a Mask
// result refers to lists[i]. At most 32 lists are supported.
func CompileSet(lists []*Trie) (*MatcherSet, error) {
	if len(lists) > 32 {
		return nil, fmt.Errorf("blocklist: MatcherSet supports at most 32 lists, got %d", len(lists))
	}
	start := time.Now()
	var entries []setEntry
	for i, t := range lists {
		bit := uint32(1) << uint(i)
		t.Walk(func(e Entry) bool {
			entries = append(entries, setEntry{block: e.Block, bit: bit})
			return true
		})
	}
	// Ascending prefix length for the same reason as Compile; ties broken
	// by base then bit for determinism (writes at equal length OR into
	// disjoint or identical ranges, so the order never changes results).
	slices.SortFunc(entries, func(a, b setEntry) int {
		if c := a.block.Bits() - b.block.Bits(); c != 0 {
			return c
		}
		if a.block.Base() != b.block.Base() {
			if a.block.Base() < b.block.Base() {
				return -1
			}
			return 1
		}
		if a.bit != b.bit {
			if a.bit < b.bit {
				return -1
			}
			return 1
		}
		return 0
	})
	ms := &MatcherSet{root: make([]uint32, 1<<16), lists: len(lists)}
	idx := map[uint32]uint32{}
	short := 0
	for _, e := range entries {
		if e.block.Bits() < 16 {
			short++
		}
		ms.orRange(e.block, e.bit, idx)
	}
	compileSeconds.Observe(time.Since(start))
	compileRules.Add(uint64(len(entries)))
	compileShortPrefix.Add(uint64(short))
	return ms, nil
}

// SweepSet compiles the prefix sweep C_n(seed) for every n in [lo, hi]
// into one MatcherSet: bit n-lo of a Mask result reports membership in
// C_n(seed). This is the §6 blocking sweep as a single compiled probe.
func SweepSet(seed ipset.Set, lo, hi int) (*MatcherSet, error) {
	if lo < 0 || hi > 32 || lo > hi {
		return nil, fmt.Errorf("blocklist: invalid sweep range [%d, %d]", lo, hi)
	}
	if hi-lo+1 > 32 {
		return nil, fmt.Errorf("blocklist: sweep range [%d, %d] exceeds 32 lists", lo, hi)
	}
	lists := make([]*Trie, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		lists = append(lists, FromSet(seed, n, "sweep"))
	}
	return CompileSet(lists)
}

// orRange ORs bit into every slot the block covers, preserving the
// masks accumulated by shorter prefixes underneath.
func (ms *MatcherSet) orRange(b netaddr.Block, bit uint32, idx map[uint32]uint32) {
	base := uint32(b.Base())
	bits := b.Bits()
	switch {
	case bits <= 16:
		lo := base >> 16
		for s, n := lo, uint32(1)<<(16-uint(bits)); s < lo+n; s++ {
			ms.root[s] = ms.orSlot(ms.root[s], bit, idx)
		}
	case bits <= 24:
		l := ms.leafForRoot(base >> 16)
		lo := l + (base>>8)&0xff
		for s, n := lo, uint32(1)<<(24-uint(bits)); s < lo+n; s++ {
			ms.leaves[s] = ms.orSlot(ms.leaves[s], bit, idx)
		}
	default:
		l2 := ms.leafForRoot(base >> 16)
		l3 := ms.leafForLeaf(l2 + (base>>8)&0xff)
		lo := l3 + base&0xff
		for s, n := lo, uint32(1)<<(32-uint(bits)); s < lo+n; s++ {
			ms.leaves[s] = ms.orSlot(ms.leaves[s], bit, idx)
		}
	}
}

// orSlot returns the slot value for oldSlot's mask with bit OR'd in,
// interning the resulting mask in ms.masks.
func (ms *MatcherSet) orSlot(oldSlot, bit uint32, idx map[uint32]uint32) uint32 {
	var mask uint32
	if oldSlot != 0 {
		mask = ms.masks[oldSlot-1]
	}
	mask |= bit
	if v, ok := idx[mask]; ok {
		return v
	}
	ms.masks = append(ms.masks, mask)
	v := uint32(len(ms.masks))
	idx[mask] = v
	return v
}

func (ms *MatcherSet) leafForRoot(ri uint32) uint32 {
	if v := ms.root[ri]; v&leafFlag != 0 {
		return (v &^ leafFlag) * leafSize
	}
	l := ms.newLeaf(ms.root[ri])
	ms.root[ri] = leafFlag | (l / leafSize)
	return l
}

func (ms *MatcherSet) leafForLeaf(li uint32) uint32 {
	if v := ms.leaves[li]; v&leafFlag != 0 {
		return (v &^ leafFlag) * leafSize
	}
	l := ms.newLeaf(ms.leaves[li])
	ms.leaves[li] = leafFlag | (l / leafSize)
	return l
}

func (ms *MatcherSet) newLeaf(fill uint32) uint32 {
	base := uint32(len(ms.leaves))
	ms.leaves = slices.Grow(ms.leaves, leafSize)[:base+leafSize]
	leaf := ms.leaves[base : base+leafSize]
	for i := range leaf {
		leaf[i] = fill
	}
	return base
}

// Mask returns the bitmask of lists whose rules cover a (bit i set means
// lists[i] blocks a, or membership in C_{lo+i} for SweepSet). It is
// allocation-free and safe for concurrent use.
func (ms *MatcherSet) Mask(a netaddr.Addr) uint32 {
	u := uint32(a)
	v := ms.root[u>>16]
	if v&leafFlag != 0 {
		v = ms.leaves[(v&^leafFlag)*leafSize+(u>>8)&0xff]
		if v&leafFlag != 0 {
			v = ms.leaves[(v&^leafFlag)*leafSize+u&0xff]
		}
	}
	if v == 0 {
		return 0
	}
	return ms.masks[v-1]
}

// Lists returns the number of lists compiled in.
func (ms *MatcherSet) Lists() int { return ms.lists }
