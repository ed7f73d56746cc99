package locality

import (
	"strings"
	"testing"

	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

func scanProbe(src string, dstIdx, day int) netflow.Record {
	r := flow(src, netaddr.MakeAddr(30, 0, byte(dstIdx>>8), byte(dstIdx)).String(), day, false)
	r.DstPort = 445
	return r
}

func TestBlockActivitySummaries(t *testing.T) {
	var records []netflow.Record
	// A scanner probing 8 hosts with no payload.
	for i := 0; i < 8; i++ {
		records = append(records, scanProbe("10.1.1.5", i, 0))
	}
	// A benign client with two payload sessions.
	records = append(records, flow("10.1.1.9", "30.0.0.1", 0, true))
	records = append(records, flow("10.1.1.9", "30.0.0.2", 1, true))
	// A host in a different /24: excluded.
	records = append(records, flow("10.1.2.1", "30.0.0.1", 0, true))

	block := netaddr.MustParseBlock("10.1.1.0/24")
	summaries := BlockActivity(records, block)
	if len(summaries) != 2 {
		t.Fatalf("summaries = %d, want 2", len(summaries))
	}
	scanner, client := summaries[0], summaries[1]
	if scanner.Addr != netaddr.MustParseAddr("10.1.1.5") {
		t.Fatalf("order wrong: %v", scanner.Addr)
	}
	if scanner.Flows != 8 || scanner.PayloadFlows != 0 || scanner.Dsts != 8 {
		t.Errorf("scanner summary = %+v", scanner)
	}
	if !scanner.Suspicious() {
		t.Error("scanner not flagged suspicious")
	}
	if client.PayloadFlows != 2 || client.Suspicious() {
		t.Errorf("client summary = %+v", client)
	}
	if client.Last <= client.First {
		t.Error("time bounds not widened")
	}
	out := RenderBlockActivity(block, summaries)
	for _, want := range []string{"10.1.1.0/24", "2 active sources", "1 suspicious", "SUSPICIOUS"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestBlockActivityEmpty(t *testing.T) {
	got := BlockActivity(nil, netaddr.MustParseBlock("10.0.0.0/8"))
	if len(got) != 0 {
		t.Fatal("expected no summaries")
	}
	out := RenderBlockActivity(netaddr.MustParseBlock("10.0.0.0/8"), got)
	if !strings.Contains(out, "0 active sources") {
		t.Error("render wrong for empty block")
	}
}
