package locality

import (
	"fmt"
	"sort"
	"strings"

	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

// SourceSummary condenses one source's traffic inside a block under
// inspection.
type SourceSummary struct {
	Addr netaddr.Addr
	// Flows and PayloadFlows count records; Octets totals bytes.
	Flows, PayloadFlows int
	Octets              uint64
	// Dsts and DstPorts count distinct destinations/ports — the fan-out
	// signature that separates scanning from sessions.
	Dsts, DstPorts int
	// First and Last bound the source's activity.
	First, Last netflow.Time
}

// Suspicious applies a coarse triage: many distinct destinations with no
// payload exchanged is the §6.2 unknown-population signature.
func (s SourceSummary) Suspicious() bool {
	return s.PayloadFlows == 0 && s.Dsts >= 5
}

// String renders one summary line.
func (s SourceSummary) String() string {
	flag := ""
	if s.Suspicious() {
		flag = "  SUSPICIOUS"
	}
	return fmt.Sprintf("%-15s flows=%-5d payload=%-5d dsts=%-5d ports=%-4d bytes=%-8d %s..%s%s",
		s.Addr, s.Flows, s.PayloadFlows, s.Dsts, s.DstPorts, s.Octets,
		s.First.UTC().Format("01-02 15:04"), s.Last.UTC().Format("01-02 15:04"), flag)
}

// BlockActivity implements the paper's §7 log-analysis suggestion: "if we
// know that a host from one network is attacking ... it is reasonable to
// examine other traffic from that network to see if there is coordinated
// hostile activity." Given a flow log and a network block, it summarizes
// every source in the block, ordered by address.
func BlockActivity(records []netflow.Record, block netaddr.Block) []SourceSummary {
	type acc struct {
		sum   SourceSummary
		dsts  map[netaddr.Addr]struct{}
		ports map[uint16]struct{}
	}
	bysrc := make(map[netaddr.Addr]*acc)
	for i := range records {
		r := &records[i]
		if !block.Contains(r.SrcAddr) {
			continue
		}
		a := bysrc[r.SrcAddr]
		if a == nil {
			a = &acc{
				sum:   SourceSummary{Addr: r.SrcAddr, First: r.First, Last: r.Last},
				dsts:  make(map[netaddr.Addr]struct{}),
				ports: make(map[uint16]struct{}),
			}
			bysrc[r.SrcAddr] = a
		}
		a.sum.Flows++
		a.sum.Octets += uint64(r.Octets)
		if r.PayloadBearing() {
			a.sum.PayloadFlows++
		}
		a.dsts[r.DstAddr] = struct{}{}
		a.ports[r.DstPort] = struct{}{}
		a.sum.First = min(a.sum.First, r.First)
		a.sum.Last = max(a.sum.Last, r.Last)
	}
	out := make([]SourceSummary, 0, len(bysrc))
	for _, a := range bysrc {
		a.sum.Dsts = len(a.dsts)
		a.sum.DstPorts = len(a.ports)
		out = append(out, a.sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// RenderBlockActivity formats a coordinated-activity report for a block.
func RenderBlockActivity(block netaddr.Block, summaries []SourceSummary) string {
	var b strings.Builder
	suspicious := 0
	for _, s := range summaries {
		if s.Suspicious() {
			suspicious++
		}
	}
	fmt.Fprintf(&b, "traffic from %s: %d active sources, %d suspicious\n",
		block, len(summaries), suspicious)
	for _, s := range summaries {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}
