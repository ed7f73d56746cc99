package spamdetect

import (
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

// referenceSpammers is the map-based detector that Detector replaced,
// over a whole slice: one set of every server per sender. The tests
// hold Detector to it.
func referenceSpammers(records []netflow.Record, cfg Config) ipset.Set {
	type senderStats struct {
		servers      map[netaddr.Addr]struct{}
		flows        int
		rejected     int
		payloadTotal uint64
	}
	senders := make(map[netaddr.Addr]*senderStats)
	for i := range records {
		r := &records[i]
		if r.Proto != netflow.ProtoTCP || r.DstPort != SMTPPort {
			continue
		}
		s := senders[r.SrcAddr]
		if s == nil {
			s = &senderStats{servers: make(map[netaddr.Addr]struct{})}
			senders[r.SrcAddr] = s
		}
		s.servers[r.DstAddr] = struct{}{}
		s.flows++
		if r.PayloadBearing() {
			s.payloadTotal += uint64(r.PayloadBytes())
		} else {
			s.rejected++
		}
	}
	out := ipset.NewBuilder(0)
	for addr, s := range senders {
		if len(s.servers) < cfg.MinServers || s.flows < cfg.MinFlows {
			continue
		}
		rejectRatio := float64(s.rejected) / float64(s.flows)
		delivered := s.flows - s.rejected
		avgPayload := 0.0
		if delivered > 0 {
			avgPayload = float64(s.payloadTotal) / float64(delivered)
		}
		if rejectRatio >= cfg.MinRejectRatio && avgPayload <= cfg.MaxAvgPayload {
			out.Add(addr)
		}
	}
	return out.Build()
}

// detect runs one Detector over records and returns its spammers,
// failing t unless the reference flags the same senders.
func detect(t testing.TB, records []netflow.Record, cfg Config) ipset.Set {
	t.Helper()
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Consume(records)
	got := d.Spammers()
	if want := referenceSpammers(records, cfg); !got.Equal(want) {
		t.Fatalf("Detector (%+v) flagged %v, the reference %v", cfg, got, want)
	}
	return got
}
