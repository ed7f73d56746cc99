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
	"slices"

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

// sender is one sender's row: its SMTP flow counts and the distinct
// servers it reached, up to MinServers of them, which the rule only
// needs to count to MinServers. They are held in Detector.servers at
// [off, off+n), with room up to off+room.
type sender struct {
	addr         netaddr.Addr
	off, n, room int
	flows        int
	rejected     int
	payloadTotal uint64
}

// firstRoom is the room a sender's servers start with, within
// MinServers; the default MinServers fits in it.
const firstRoom = 8

// Detector is the spam detector as a fold accumulator: Consume counts
// each sender's SMTP flows, Merge adds another accumulator's counts, and
// Spammers applies the thresholds. Each sender is one pointer-free row
// of a flat slice, found through one map lookup per run of its records,
// and its servers share one flat slice, so nothing is allocated per
// sender.
type Detector struct {
	cfg     Config
	index   map[netaddr.Addr]uint32 // sender -> its row
	rows    []sender
	servers []netaddr.Addr
}

// NewDetector returns an empty accumulator.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, index: make(map[netaddr.Addr]uint32)}, nil
}

// Consume counts the SMTP flows of records.
func (d *Detector) Consume(records []netflow.Record) {
	var s *sender
	for i := range records {
		r := &records[i]
		if r.Proto != netflow.ProtoTCP || r.DstPort != SMTPPort {
			continue
		}
		if s == nil || s.addr != r.SrcAddr {
			s = d.row(r.SrcAddr)
		}
		d.remember(s, r.DstAddr)
		s.flows++
		if r.PayloadBearing() {
			s.payloadTotal += uint64(r.PayloadBytes())
		} else {
			s.rejected++
		}
	}
}

// row returns a's row, adding an empty one if a is new. The pointer
// lasts until the next new row.
func (d *Detector) row(a netaddr.Addr) *sender {
	i, ok := d.index[a]
	if !ok {
		i = uint32(len(d.rows))
		d.index[a] = i
		d.rows = append(d.rows, sender{addr: a})
	}
	return &d.rows[i]
}

// remember adds server to s's servers unless s already holds it or
// holds MinServers of them. A sender out of room moves its servers to
// the end of the flat slice with twice the room, up to MinServers.
func (d *Detector) remember(s *sender, server netaddr.Addr) {
	if s.n >= d.cfg.MinServers || slices.Contains(d.servers[s.off:s.off+s.n], server) {
		return
	}
	if s.n == s.room {
		room := min(max(2*s.room, firstRoom), d.cfg.MinServers)
		off := len(d.servers)
		d.servers = slices.Grow(d.servers, room)[:off+room]
		copy(d.servers[off:], d.servers[s.off:s.off+s.n])
		s.off, s.room = off, room
	}
	d.servers[s.off+s.n] = server
	s.n++
}

// Merge adds other's counts, sender by sender, to d, and its servers
// under the same cap; other must have the same configuration and must
// not be used again.
func (d *Detector) Merge(other *Detector) {
	if d.cfg != other.cfg {
		panic("spamdetect: merging detectors of different configurations")
	}
	for i := range other.rows {
		o := &other.rows[i]
		s := d.row(o.addr)
		for _, server := range other.servers[o.off : o.off+o.n] {
			d.remember(s, server)
		}
		s.flows += o.flows
		s.rejected += o.rejected
		s.payloadTotal += o.payloadTotal
	}
	*other = Detector{}
}

// Spammers returns the senders that pass the thresholds.
func (d *Detector) Spammers() ipset.Set {
	out := ipset.NewBuilder(0)
	for i := range d.rows {
		s := &d.rows[i]
		if s.n < d.cfg.MinServers || s.flows < d.cfg.MinFlows {
			continue
		}
		rejectRatio := float64(s.rejected) / float64(s.flows)
		delivered := s.flows - s.rejected
		avgPayload := 0.0
		if delivered > 0 {
			avgPayload = float64(s.payloadTotal) / float64(delivered)
		}
		if rejectRatio >= d.cfg.MinRejectRatio && avgPayload <= d.cfg.MaxAvgPayload {
			out.Add(s.addr)
		}
	}
	return out.Build()
}
