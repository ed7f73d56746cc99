// Package blocklist is the applied system built on the uncleanliness
// results: compilation of CIDR block lists from reports and scores, a
// longest-prefix-match engine for applying them to traffic, and the
// virtual blocking evaluator used by the §6 experiment and the examples.
package blocklist

import (
	"fmt"
	"strings"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// Entry is one blocklist rule.
type Entry struct {
	// Block is the network the rule covers.
	Block netaddr.Block
	// Reason records why the block was listed (report tags, score).
	Reason string
}

// Trie is a binary radix tree over IPv4 prefixes supporting
// longest-prefix-match lookup. The zero value is an empty list.
type Trie struct {
	root node
	size int
}

type node struct {
	children [2]*node
	entry    *Entry
}

// Insert adds or replaces the rule for a block. It returns true if a new
// rule was created, false if an existing rule for the same block was
// replaced.
func (t *Trie) Insert(b netaddr.Block, reason string) bool {
	n := &t.root
	base := uint32(b.Base())
	for depth := 0; depth < b.Bits(); depth++ {
		bit := (base >> (31 - uint(depth))) & 1
		if n.children[bit] == nil {
			n.children[bit] = &node{}
		}
		n = n.children[bit]
	}
	created := n.entry == nil
	n.entry = &Entry{Block: b, Reason: reason}
	if created {
		t.size++
	}
	return created
}

// Len returns the number of rules.
func (t *Trie) Len() int { return t.size }

// Lookup returns the most specific rule covering a, if any.
func (t *Trie) Lookup(a netaddr.Addr) (Entry, bool) {
	n := &t.root
	var best *Entry
	addr := uint32(a)
	for depth := 0; ; depth++ {
		if n.entry != nil {
			best = n.entry
		}
		if depth == 32 {
			break
		}
		bit := (addr >> (31 - uint(depth))) & 1
		if n.children[bit] == nil {
			break
		}
		n = n.children[bit]
	}
	if best == nil {
		return Entry{}, false
	}
	return *best, true
}

// Blocks reports whether a is covered by any rule.
func (t *Trie) Blocks(a netaddr.Addr) bool {
	_, ok := t.Lookup(a)
	return ok
}

// Walk visits every rule in address order (shorter prefixes before longer
// at the same base); it stops early if fn returns false.
func (t *Trie) Walk(fn func(Entry) bool) {
	t.root.walk(fn)
}

func (n *node) walk(fn func(Entry) bool) bool {
	if n == nil {
		return true
	}
	if n.entry != nil {
		if !fn(*n.entry) {
			return false
		}
	}
	return n.children[0].walk(fn) && n.children[1].walk(fn)
}

// Entries returns all rules in walk order.
func (t *Trie) Entries() []Entry {
	out := make([]Entry, 0, t.size)
	t.Walk(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// String renders small lists fully, large lists as a summary.
func (t *Trie) String() string {
	if t.size > 8 {
		return fmt.Sprintf("blocklist(%d rules)", t.size)
	}
	var parts []string
	t.Walk(func(e Entry) bool {
		parts = append(parts, e.Block.String())
		return true
	})
	return "blocklist[" + strings.Join(parts, " ") + "]"
}

// FromSet compiles a blocklist covering the n-bit blocks of every address
// in s, each rule annotated with reason.
func FromSet(s ipset.Set, bits int, reason string) *Trie {
	t := &Trie{}
	for _, b := range s.Blocks(bits) {
		t.Insert(b, reason)
	}
	return t
}
