package blocklist

import (
	"testing"
	"testing/quick"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

func TestInsertLookup(t *testing.T) {
	var tr Trie
	if !tr.Insert(netaddr.MustParseBlock("10.1.0.0/16"), "outer") {
		t.Fatal("first insert should create")
	}
	if !tr.Insert(netaddr.MustParseBlock("10.1.2.0/24"), "inner") {
		t.Fatal("second insert should create")
	}
	if tr.Insert(netaddr.MustParseBlock("10.1.0.0/16"), "outer2") {
		t.Fatal("replacing insert should not create")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Longest prefix wins.
	e, ok := tr.Lookup(netaddr.MustParseAddr("10.1.2.77"))
	if !ok || e.Reason != "inner" {
		t.Fatalf("Lookup inner = %+v, %v", e, ok)
	}
	e, ok = tr.Lookup(netaddr.MustParseAddr("10.1.9.1"))
	if !ok || e.Reason != "outer2" {
		t.Fatalf("Lookup outer = %+v, %v", e, ok)
	}
	if _, ok := tr.Lookup(netaddr.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("lookup outside rules matched")
	}
}

func TestDefaultRouteRule(t *testing.T) {
	var tr Trie
	tr.Insert(netaddr.MustParseBlock("0.0.0.0/0"), "default")
	if !tr.Blocks(netaddr.MustParseAddr("203.0.113.9")) {
		t.Fatal("/0 rule must match everything")
	}
	tr.Insert(netaddr.MustParseBlock("203.0.113.9/32"), "host")
	e, _ := tr.Lookup(netaddr.MustParseAddr("203.0.113.9"))
	if e.Reason != "host" {
		t.Fatal("/32 must beat /0")
	}
}

func TestWalkAndEntries(t *testing.T) {
	var tr Trie
	blocks := []string{"10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/16", "10.1.0.0/24"}
	for _, b := range blocks {
		tr.Insert(netaddr.MustParseBlock(b), b)
	}
	entries := tr.Entries()
	if len(entries) != 4 {
		t.Fatalf("Entries = %d", len(entries))
	}
	// Walk order: by address, shorter prefix first at equal base.
	want := []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.0.0/24", "192.168.0.0/16"}
	for i, e := range entries {
		if e.Block.String() != want[i] {
			t.Errorf("entry %d = %s, want %s", i, e.Block, want[i])
		}
	}
	// Early stop.
	count := 0
	tr.Walk(func(Entry) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early-stop walk visited %d", count)
	}
}

func TestLookupMatchesLinearScan(t *testing.T) {
	rng := stats.NewRNG(7)
	var tr Trie
	var entries []Entry
	for i := 0; i < 300; i++ {
		b := netaddr.Addr(rng.Uint32()).Block(8 + rng.Intn(25))
		tr.Insert(b, b.String())
		entries = append(entries, Entry{Block: b, Reason: b.String()})
	}
	f := func(raw uint32) bool {
		a := netaddr.Addr(raw)
		var best *Entry
		for i := range entries {
			e := &entries[i]
			if e.Block.Contains(a) && (best == nil || e.Block.Bits() > best.Block.Bits()) {
				best = e
			}
		}
		got, ok := tr.Lookup(a)
		if best == nil {
			return !ok
		}
		// Duplicate blocks overwrite; compare block only.
		return ok && got.Block == best.Block
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromSet(t *testing.T) {
	s := ipset.MustParse("10.1.1.1 10.1.1.200 10.2.2.2")
	tr := FromSet(s, 24, "unclean")
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2 /24 rules", tr.Len())
	}
	if !tr.Blocks(netaddr.MustParseAddr("10.1.1.99")) {
		t.Error("address in covered /24 not blocked")
	}
	if tr.Blocks(netaddr.MustParseAddr("10.1.2.1")) {
		t.Error("address outside covered /24s blocked")
	}
}

func flowFrom(src string, payload bool) netflow.Record {
	t0 := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	r := netflow.Record{
		SrcAddr: netaddr.MustParseAddr(src),
		DstAddr: netaddr.MustParseAddr("30.0.0.1"),
		First:   netflow.TimeOf(t0), Last: netflow.TimeOf(t0.Add(time.Second)),
		Proto: netflow.ProtoTCP, SrcPort: 2000, DstPort: 80,
	}
	if payload {
		r.Packets, r.Octets = 10, 2000
		r.TCPFlags = netflow.FlagSYN | netflow.FlagACK | netflow.FlagPSH
	} else {
		r.Packets, r.Octets = 2, 96
		r.TCPFlags = netflow.FlagSYN
	}
	return r
}

func TestEvaluateAndScore(t *testing.T) {
	tr := FromSet(ipset.MustParse("10.1.1.1"), 24, "unclean")
	records := []netflow.Record{
		flowFrom("10.1.1.50", false), // blocked, hostile
		flowFrom("10.1.1.50", false),
		flowFrom("10.1.1.60", true), // blocked, innocent (collateral)
		flowFrom("20.0.0.1", true),  // passed, innocent
		flowFrom("20.0.0.2", false), // passed, hostile (missed)
	}
	ms, err := CompileSet([]*Trie{tr})
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSweepEvaluator(ms)
	sv.Consume(records)
	e := sv.Results()[0]
	if e.FlowsBlocked != 3 || e.FlowsPassed != 2 {
		t.Fatalf("flows = %d/%d", e.FlowsBlocked, e.FlowsPassed)
	}
	if e.BlockedSources.Len() != 2 || e.PassedSources.Len() != 2 {
		t.Fatalf("sources = %d/%d", e.BlockedSources.Len(), e.PassedSources.Len())
	}
	if e.PayloadBlocked != 1 {
		t.Fatalf("PayloadBlocked = %d", e.PayloadBlocked)
	}
	hostile := ipset.MustParse("10.1.1.50 20.0.0.2")
	innocent := ipset.MustParse("10.1.1.60 20.0.0.1")
	c := e.Score(hostile, innocent)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.TPR() != 0.5 || c.FPR() != 0.5 {
		t.Fatalf("rates = %v/%v", c.TPR(), c.FPR())
	}
	if c.String() == "" {
		t.Error("empty String")
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.TPR() != 0 || c.FPR() != 0 {
		t.Error("degenerate rates should be 0")
	}
}

func TestTrieString(t *testing.T) {
	var tr Trie
	tr.Insert(netaddr.MustParseBlock("10.0.0.0/8"), "x")
	if got := tr.String(); got != "blocklist[10.0.0.0/8]" {
		t.Errorf("String = %q", got)
	}
	for i := 0; i < 20; i++ {
		tr.Insert(netaddr.MakeAddr(byte(i), 0, 0, 0).Block(8), "x")
	}
	if got := tr.String(); got != "blocklist(20 rules)" {
		t.Errorf("large String = %q", got)
	}
}
