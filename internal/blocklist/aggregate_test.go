package blocklist

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

func TestAggregateMergesSiblings(t *testing.T) {
	var tr Trie
	tr.Insert(netaddr.MustParseBlock("10.1.0.0/24"), "bot")
	tr.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "bot")
	agg := tr.Aggregate()
	if agg.Len() != 1 {
		t.Fatalf("Len = %d, want 1", agg.Len())
	}
	e, ok := agg.Lookup(netaddr.MustParseAddr("10.1.1.5"))
	if !ok || e.Block.String() != "10.1.0.0/23" || e.Reason != "bot" {
		t.Fatalf("merged entry = %+v, %v", e, ok)
	}
}

func TestAggregateCascades(t *testing.T) {
	// Four adjacent /24s collapse into one /22.
	var tr Trie
	for i := 0; i < 4; i++ {
		tr.Insert(netaddr.MakeAddr(10, 1, byte(i), 0).Block(24), "x")
	}
	agg := tr.Aggregate()
	if agg.Len() != 1 {
		t.Fatalf("Len = %d, want 1", agg.Len())
	}
	if e, _ := agg.Lookup(netaddr.MustParseAddr("10.1.3.9")); e.Block.String() != "10.1.0.0/22" {
		t.Fatalf("entry = %+v", e)
	}
}

func TestAggregateDropsCoveredRules(t *testing.T) {
	var tr Trie
	tr.Insert(netaddr.MustParseBlock("10.0.0.0/8"), "outer")
	tr.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "inner")
	agg := tr.Aggregate()
	if agg.Len() != 1 {
		t.Fatalf("Len = %d, want 1", agg.Len())
	}
	if e, _ := agg.Lookup(netaddr.MustParseAddr("10.1.1.1")); e.Reason != "outer" {
		t.Fatalf("entry = %+v", e)
	}
}

func TestAggregateMixedReasons(t *testing.T) {
	var tr Trie
	tr.Insert(netaddr.MustParseBlock("10.1.0.0/24"), "bot")
	tr.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "spam")
	agg := tr.Aggregate()
	if agg.Len() != 1 {
		t.Fatalf("Len = %d", agg.Len())
	}
	if e, _ := agg.Lookup(netaddr.MustParseAddr("10.1.0.1")); e.Reason != "aggregated" {
		t.Fatalf("reason = %q", e.Reason)
	}
}

func TestAggregateNonAdjacentStay(t *testing.T) {
	var tr Trie
	tr.Insert(netaddr.MustParseBlock("10.1.0.0/24"), "x")
	tr.Insert(netaddr.MustParseBlock("10.1.2.0/24"), "x") // not a sibling of 10.1.0.0/24
	agg := tr.Aggregate()
	if agg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", agg.Len())
	}
}

func TestAggregatePreservesCoverage(t *testing.T) {
	f := func(raw []uint32, bitsRaw []uint8) bool {
		var tr Trie
		for i, u := range raw {
			if i >= len(bitsRaw) {
				break
			}
			bits := 8 + int(bitsRaw[i]%25) // /8../32
			tr.Insert(netaddr.Addr(u).Block(bits), "r")
		}
		agg := tr.Aggregate()
		if agg.Len() > tr.Len() {
			return false
		}
		// Membership must be identical for probes around every rule edge
		// and for random addresses.
		probes := []netaddr.Addr{0, ^netaddr.Addr(0)}
		tr.Walk(func(e Entry) bool {
			probes = append(probes, e.Block.Base(), lastAddr(e.Block), e.Block.Base()-1, lastAddr(e.Block)+1)
			return true
		})
		rng := stats.NewRNG(7)
		for i := 0; i < 64; i++ {
			probes = append(probes, netaddr.Addr(rng.Uint32()))
		}
		for _, p := range probes {
			if tr.Blocks(p) != agg.Blocks(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateIdempotent(t *testing.T) {
	var tr Trie
	for i := 0; i < 8; i++ {
		tr.Insert(netaddr.MakeAddr(10, byte(i), 0, 0).Block(17), "x")
	}
	once := tr.Aggregate()
	twice := once.Aggregate()
	if once.Len() != twice.Len() {
		t.Fatalf("not idempotent: %d vs %d", once.Len(), twice.Len())
	}
	if canonicalCover(once) != canonicalCover(twice) || canonicalCover(&tr) != canonicalCover(once) {
		t.Fatal("coverage changed")
	}
}

// TestAggregateDeterministic pins the output of Aggregate — blocks AND
// reasons — across repeated runs and across insertion orders. The seed
// implementation restarted a map iteration after every merge, so
// multi-level mixed-reason merges could land different reasons from run
// to run; the bottom-up pass must not.
func TestAggregateDeterministic(t *testing.T) {
	rules := []struct {
		block  string
		reason string
	}{
		{"10.1.0.0/24", "bot"},
		{"10.1.1.0/24", "spam"},
		{"10.1.2.0/24", "bot"},
		{"10.1.3.0/24", "bot"},
		{"10.2.0.0/25", "scan"},
		{"10.2.0.128/25", "scan"},
		{"192.168.0.0/17", "x"},
		{"192.168.128.0/17", "y"},
	}
	rng := stats.NewRNG(3)
	var want string
	for trial := 0; trial < 50; trial++ {
		order := rng.Perm(len(rules))
		var tr Trie
		for _, i := range order {
			tr.Insert(netaddr.MustParseBlock(rules[i].block), rules[i].reason)
		}
		got := tr.Aggregate().String()
		if trial == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("trial %d: aggregate output changed with insertion order:\n got %q\nwant %q", trial, got, want)
		}
	}
	// The pinned expectations: same-reason runs keep their reason,
	// mixed-reason merges become "aggregated".
	var tr Trie
	for _, r := range rules {
		tr.Insert(netaddr.MustParseBlock(r.block), r.reason)
	}
	agg := tr.Aggregate()
	if agg.Len() != 3 {
		t.Fatalf("Len = %d, want 3", agg.Len())
	}
	for addr, reason := range map[string]string{
		"10.1.2.7":      "aggregated", // bot+spam+bot+bot /22
		"10.2.0.200":    "scan",       // scan+scan /24
		"192.168.77.77": "aggregated", // x+y /16
	} {
		if e, ok := agg.Lookup(netaddr.MustParseAddr(addr)); !ok || e.Reason != reason {
			t.Errorf("Lookup(%s) = %+v (ok=%v), want reason %q", addr, e, ok, reason)
		}
	}
}

// TestCoversSameAddresses holds the oracle above to lists whose covered
// addresses are known to match or to differ.
func TestCoversSameAddresses(t *testing.T) {
	var a, b, c Trie
	a.Insert(netaddr.MustParseBlock("10.1.0.0/23"), "x")
	b.Insert(netaddr.MustParseBlock("10.1.0.0/24"), "y")
	b.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "z")
	c.Insert(netaddr.MustParseBlock("10.1.0.0/24"), "y")
	if canonicalCover(&a) != canonicalCover(&b) {
		t.Error("equivalent lists reported different")
	}
	if canonicalCover(&a) == canonicalCover(&c) {
		t.Error("different lists reported equivalent")
	}
}

// canonicalCover renders the list's covered space as a canonical string
// of disjoint, fully-merged blocks: the oracle that Aggregate keeps the
// covered addresses.
func canonicalCover(t *Trie) string {
	agg := t.Aggregate()
	blocks := make([]netaddr.Block, 0, agg.Len())
	agg.Walk(func(e Entry) bool {
		blocks = append(blocks, e.Block)
		return true
	})
	slices.SortFunc(blocks, func(a, b netaddr.Block) int {
		if c := cmp.Compare(a.Base(), b.Base()); c != 0 {
			return c
		}
		return cmp.Compare(a.Bits(), b.Bits())
	})
	var sb strings.Builder
	for _, b := range blocks {
		sb.WriteString(b.String())
		sb.WriteByte(' ')
	}
	return sb.String()
}
