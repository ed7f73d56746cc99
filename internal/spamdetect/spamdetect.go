// Package spamdetect implements a behavioral spam detector over flow logs,
// standing in for the unnamed under-review method the paper uses for its
// observed spam reports (§3.1, footnote 3).
//
// The detector is behavioral in the same sense as the scan detector: it
// looks only at flow-level features of SMTP traffic, never payload. A
// spamming bot differs from a legitimate mail relay in fan-out (it
// delivers to many distinct mail servers), in rejection rate (much of its
// traffic is refused or tarpitted, yielding failed or tiny flows), and in
// per-message volume (template spam is small and uniform).
package spamdetect

import (
	"fmt"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

// SMTPPort is the destination port the detector watches.
const SMTPPort = 25

// Config parameterizes the detector.
type Config struct {
	// MinServers is the minimum number of distinct SMTP destinations a
	// source must deliver to before it can be flagged.
	MinServers int
	// MinFlows is the minimum total SMTP flow count.
	MinFlows int
	// MaxAvgPayload is the per-flow average payload ceiling (bytes);
	// template spam is small, real mail (attachments, threads) is not.
	MaxAvgPayload float64
	// MinRejectRatio is the minimum fraction of SMTP flows that failed
	// (no established, payload-bearing exchange).
	MinRejectRatio float64
}

// DefaultConfig returns the settings used for the observed spam reports.
func DefaultConfig() Config {
	return Config{
		MinServers:     8,
		MinFlows:       12,
		MaxAvgPayload:  4096,
		MinRejectRatio: 0.25,
	}
}

func (c Config) validate() error {
	if c.MinServers < 1 || c.MinFlows < 1 {
		return fmt.Errorf("spamdetect: MinServers and MinFlows must be positive")
	}
	if c.MaxAvgPayload <= 0 {
		return fmt.Errorf("spamdetect: MaxAvgPayload must be positive")
	}
	if c.MinRejectRatio < 0 || c.MinRejectRatio > 1 {
		return fmt.Errorf("spamdetect: MinRejectRatio must be in [0,1]")
	}
	return nil
}

type senderStats struct {
	servers      map[netaddr.Addr]struct{}
	flows        int
	rejected     int
	payloadTotal uint64
}

// Detector is the spam detector as a fold accumulator: Consume counts
// each sender's SMTP flows, Merge adds another accumulator's counts, and
// Spammers applies the thresholds. Detect is one Consume and Spammers
// over a slice.
type Detector struct {
	cfg     Config
	senders map[netaddr.Addr]*senderStats
}

// NewDetector returns an empty accumulator.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, senders: make(map[netaddr.Addr]*senderStats)}, nil
}

// Consume counts the SMTP flows of records.
func (d *Detector) Consume(records []netflow.Record) {
	for i := range records {
		r := &records[i]
		if r.Proto != netflow.ProtoTCP || r.DstPort != SMTPPort {
			continue
		}
		s := d.senders[r.SrcAddr]
		if s == nil {
			s = &senderStats{servers: make(map[netaddr.Addr]struct{})}
			d.senders[r.SrcAddr] = s
		}
		s.servers[r.DstAddr] = struct{}{}
		s.flows++
		if r.PayloadBearing() {
			s.payloadTotal += uint64(r.PayloadBytes())
		} else {
			s.rejected++
		}
	}
}

// Merge adds other's counts, sender by sender, to d; other must have
// the same configuration and must not be used again.
func (d *Detector) Merge(other *Detector) {
	if d.cfg != other.cfg {
		panic("spamdetect: merging detectors of different configurations")
	}
	for addr, o := range other.senders {
		s := d.senders[addr]
		if s == nil {
			d.senders[addr] = o
			continue
		}
		for srv := range o.servers {
			s.servers[srv] = struct{}{}
		}
		s.flows += o.flows
		s.rejected += o.rejected
		s.payloadTotal += o.payloadTotal
	}
	other.senders = nil
}

// Spammers returns the senders that pass the thresholds.
func (d *Detector) Spammers() ipset.Set {
	out := ipset.NewBuilder(0)
	for addr, s := range d.senders {
		if len(s.servers) < d.cfg.MinServers || s.flows < d.cfg.MinFlows {
			continue
		}
		rejectRatio := float64(s.rejected) / float64(s.flows)
		delivered := s.flows - s.rejected
		avgPayload := 0.0
		if delivered > 0 {
			avgPayload = float64(s.payloadTotal) / float64(delivered)
		}
		if rejectRatio >= d.cfg.MinRejectRatio && avgPayload <= d.cfg.MaxAvgPayload {
			out.Add(addr)
		}
	}
	return out.Build()
}

// Detect runs the detector over a record slice and returns the flagged
// spamming sources.
func Detect(records []netflow.Record, cfg Config) (ipset.Set, error) {
	d, err := NewDetector(cfg)
	if err != nil {
		return ipset.Set{}, err
	}
	d.Consume(records)
	return d.Spammers(), nil
}
