package blocklist

import (
	"cmp"
	"slices"

	"unclean/internal/netaddr"
)

// Aggregate returns a minimized blocklist covering exactly the same
// addresses: rules already covered by a shorter-prefix rule are dropped,
// and complementary sibling rules are merged into their parent,
// recursively. Operational lists distributed to routers and DNSBL
// mirrors are aggregated first — the /24 expansion of a report routinely
// contains mergeable runs.
//
// Reasons are preserved when the merged rules agree and replaced with
// "aggregated" otherwise. The pass is deterministic: rules are bucketed
// by prefix length and merged bottom-up (longest prefixes first, each
// level in base-address order), so the same input always yields the same
// output regardless of insertion or map iteration order.
func (t *Trie) Aggregate() *Trie {
	entries := t.Entries()
	// Shorter prefixes first so covered rules can be dropped in one pass.
	slices.SortFunc(entries, compareEntries)
	cover := &Trie{}
	var levels [33][]Entry // surviving rules bucketed by prefix length
	for _, e := range entries {
		if cover.Blocks(e.Block.Base()) {
			continue // a shorter rule already covers this block entirely
		}
		cover.Insert(e.Block, e.Reason)
		levels[e.Block.Bits()] = append(levels[e.Block.Bits()], e)
	}
	// Bottom-up sibling merge: walk levels from /32 to /1; within a level
	// blocks are disjoint and equally sized, so after sorting by base a
	// complementary pair is always adjacent. A merged pair becomes a
	// parent entry one level up, where it may merge again. No merge
	// candidate is ever missed and no map is iterated, so the result is
	// canonical.
	out := &Trie{}
	for bits := 32; bits >= 1; bits-- {
		lvl := levels[bits]
		slices.SortFunc(lvl, compareEntries)
		for i := 0; i < len(lvl); i++ {
			e := lvl[i]
			if i+1 < len(lvl) && lvl[i+1].Block == siblingOf(e.Block) {
				reason := e.Reason
				if lvl[i+1].Reason != reason {
					reason = "aggregated"
				}
				levels[bits-1] = append(levels[bits-1], Entry{Block: e.Block.Parent(), Reason: reason})
				i++ // the sibling is consumed by the merge
				continue
			}
			out.Insert(e.Block, e.Reason)
		}
	}
	for _, e := range levels[0] {
		out.Insert(e.Block, e.Reason)
	}
	return out
}

// compareEntries orders rules by prefix length, then base address.
func compareEntries(a, b Entry) int { return compareBlocks(a.Block, b.Block) }

// compareBlocks orders blocks by prefix length, then base address: the
// order in which a compiled table writes its rules.
func compareBlocks(a, b netaddr.Block) int {
	if c := a.Bits() - b.Bits(); c != 0 {
		return c
	}
	return cmp.Compare(a.Base(), b.Base())
}

// siblingOf returns the block differing from b only in its last prefix
// bit.
func siblingOf(b netaddr.Block) netaddr.Block {
	bit := netaddr.Addr(1) << (32 - uint(b.Bits()))
	return (b.Base() ^ bit).Block(b.Bits())
}
