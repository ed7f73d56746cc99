// Package scandetect identifies scanning sources in flow logs. It
// implements the two behavioral methods the paper cites (§3.1):
//
//   - Threshold Random Walk (Jung et al., Oakland 2004): sequential
//     hypothesis testing over per-source connection outcomes.
//   - Hourly threshold detection in the spirit of Gates et al. (ISCC
//     2006): per-hour fan-out counting. This is the method the paper's
//     observed scan reports use, and it is deliberately blind to slow
//     scanners ("less than 30 addresses per day", §6.2) — reproducing
//     that detector bias matters for the unknown-population analysis.
package scandetect

import (
	"fmt"
	"math"
	"sort"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

// Outcome classifies one flow as a connection success or failure for the
// purposes of the random walk.
type Outcome uint8

// Outcomes.
const (
	// Success: the destination talked back enough for payload exchange.
	Success Outcome = iota
	// Failure: no established connection (SYN-only, RST, or no ACK).
	Failure
)

// Classify maps a flow record to a TRW outcome. A flow counts as a success
// if it carried an ACK and at least one byte beyond bare headers; anything
// else — SYN-only probes, RST responses, half-open attempts — is a failure.
func Classify(r *netflow.Record) Outcome {
	if r.Proto != netflow.ProtoTCP {
		// Non-TCP probes (UDP/ICMP sweeps) count as failures: scanners
		// probing dark space get nothing back.
		return Failure
	}
	if r.TCPFlags&netflow.FlagRST != 0 {
		return Failure
	}
	if r.TCPFlags&netflow.FlagACK != 0 && r.PayloadBytes() > 0 {
		return Success
	}
	return Failure
}

// TRWConfig parameterizes the sequential hypothesis test.
type TRWConfig struct {
	// Theta0 is the probability a benign source's connection succeeds.
	Theta0 float64
	// Theta1 is the probability a scanner's connection succeeds.
	Theta1 float64
	// Alpha is the acceptable false-positive rate, Beta the acceptable
	// false-negative rate; together they set the decision thresholds.
	Alpha, Beta float64
}

// DefaultTRWConfig returns the parameters from Jung et al.:
// theta0=0.8, theta1=0.2, alpha=0.01, beta=0.99 detection.
func DefaultTRWConfig() TRWConfig {
	return TRWConfig{Theta0: 0.8, Theta1: 0.2, Alpha: 0.01, Beta: 0.01}
}

func (c TRWConfig) validate() error {
	if !(c.Theta1 < c.Theta0) || c.Theta0 <= 0 || c.Theta0 >= 1 || c.Theta1 <= 0 || c.Theta1 >= 1 {
		return fmt.Errorf("scandetect: need 0 < theta1 < theta0 < 1, got %v, %v", c.Theta1, c.Theta0)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 || c.Beta <= 0 || c.Beta >= 1 {
		return fmt.Errorf("scandetect: alpha and beta must be in (0,1)")
	}
	return nil
}

// TRW is the sequential hypothesis tester. It consumes flows (in any
// order; per-source first-contact ordering is handled internally by
// distinct-destination tracking) and accumulates per-source log-likelihood
// ratios.
type TRW struct {
	cfg       TRWConfig
	upperLog  float64 // log eta1: declare scanner
	lowerLog  float64 // log eta0: declare benign
	successLL float64 // log((1-theta1)/(1-theta0)) < 0
	failureLL float64 // log(theta1/theta0) ... wait: see NewTRW
	sources   map[netaddr.Addr]*trwSource
}

type trwSource struct {
	llr       float64
	decided   bool
	scanner   bool
	contacted map[netaddr.Addr]struct{}
}

// NewTRW builds a tester; it returns an error for inconsistent parameters.
func NewTRW(cfg TRWConfig) (*TRW, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Likelihood ratio of H1 (scanner) vs H0 (benign): a success multiplies
	// by theta1/theta0 (<1), a failure by (1-theta1)/(1-theta0) (>1).
	return &TRW{
		cfg:       cfg,
		upperLog:  math.Log((1 - cfg.Beta) / cfg.Alpha),
		lowerLog:  math.Log(cfg.Beta / (1 - cfg.Alpha)),
		successLL: math.Log(cfg.Theta1 / cfg.Theta0),
		failureLL: math.Log((1 - cfg.Theta1) / (1 - cfg.Theta0)),
		sources:   make(map[netaddr.Addr]*trwSource),
	}, nil
}

// Observe feeds one flow into the walk. Only the first contact with each
// distinct destination moves a source's ratio (repeat flows to the same
// destination are not independent evidence).
func (t *TRW) Observe(r *netflow.Record) {
	src := t.sources[r.SrcAddr]
	if src == nil {
		src = &trwSource{contacted: make(map[netaddr.Addr]struct{})}
		t.sources[r.SrcAddr] = src
	}
	if src.decided && src.scanner {
		return // verdict is final for scanners
	}
	if _, seen := src.contacted[r.DstAddr]; seen {
		return
	}
	src.contacted[r.DstAddr] = struct{}{}
	if Classify(r) == Success {
		src.llr += t.successLL
	} else {
		src.llr += t.failureLL
	}
	switch {
	case src.llr >= t.upperLog:
		src.decided, src.scanner = true, true
	case src.llr <= t.lowerLog:
		// Benign verdict; the walk restarts so a later compromise of the
		// same address can still be caught.
		src.decided, src.scanner = false, false
		src.llr = 0
	}
}

// Scanners returns the set of sources flagged as scanners so far.
func (t *TRW) Scanners() ipset.Set {
	b := ipset.NewBuilder(0)
	for a, s := range t.sources {
		if s.decided && s.scanner {
			b.Add(a)
		}
	}
	return b.Build()
}

// SourceCount returns how many distinct sources have been observed.
func (t *TRW) SourceCount() int { return len(t.sources) }

// DetectTRW runs the random walk over a record slice and returns the
// flagged scanners. Records are processed in timestamp order.
func DetectTRW(records []netflow.Record, cfg TRWConfig) (ipset.Set, error) {
	t, err := NewTRW(cfg)
	if err != nil {
		return ipset.Set{}, err
	}
	idx := make([]int, len(records))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return records[idx[a]].First < records[idx[b]].First
	})
	for _, i := range idx {
		t.Observe(&records[i])
	}
	return t.Scanners(), nil
}
