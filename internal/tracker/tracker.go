// Package tracker implements the "more rigorous and precise uncleanliness
// metric" the paper sets as its immediate follow-on goal (§7): a
// streaming, multidimensional, time-decaying estimate of per-network
// uncleanliness. Reports arrive dated; evidence decays exponentially with
// a configurable half-life, so a network that stops emitting hostile
// traffic is eventually forgiven — the operational fix for the
// stale-blocklist problem static lists have. Evidence observed on one
// date does not decay, so a tracker fed every report on the same date
// gives the static score.
package tracker

import (
	"fmt"
	"math"
	"sort"
	"time"

	"unclean/internal/core"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// Config parameterizes a Tracker.
type Config struct {
	// Bits is the block granularity (the paper's analyses support
	// 16..32; /24 is the natural operating point).
	Bits int
	// HalfLife is the evidence half-life. The paper's temporal analysis
	// shows unclean networks persist for months, so half-lives of weeks
	// keep prediction strong while allowing recovery.
	HalfLife time.Duration
	// Tau is the evidence scale mapping decayed counts to [0,1] scores:
	// a dimension with k evidence scores 1 - exp(-k/Tau), so it reaches
	// 1-1/e at Tau evidence and saturates at 1.
	Tau float64
}

// DefaultConfig returns /24 blocks, a six-week half-life, tau 4.
func DefaultConfig() Config {
	return Config{Bits: 24, HalfLife: 42 * 24 * time.Hour, Tau: 4}
}

func (c Config) validate() error {
	if c.Bits < 0 || c.Bits > 32 {
		return fmt.Errorf("tracker: Bits out of range")
	}
	if c.HalfLife <= 0 {
		return fmt.Errorf("tracker: HalfLife must be positive")
	}
	if !(c.Tau > 0) || math.IsInf(c.Tau, 1) {
		return fmt.Errorf("tracker: Tau must be finite and positive")
	}
	return nil
}

type blockState struct {
	counts [4]float64
	asOf   time.Time
}

// Tracker accumulates dated report evidence per block. The zero value is
// not usable; construct with New.
type Tracker struct {
	cfg    Config
	lambda float64 // decay rate per nanosecond
	blocks map[netaddr.Addr]*blockState
	now    time.Time
}

// New builds a tracker.
func New(cfg Config) (*Tracker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tracker{
		cfg:    cfg,
		lambda: math.Ln2 / float64(cfg.HalfLife),
		blocks: make(map[netaddr.Addr]*blockState),
	}, nil
}

// BlockCount returns the number of blocks with evidence.
func (t *Tracker) BlockCount() int { return len(t.blocks) }

// decayTo brings a block's evidence forward to at (no-op if at is not
// later than the block's timestamp).
func (t *Tracker) decayTo(b *blockState, at time.Time) {
	dt := at.Sub(b.asOf)
	if dt <= 0 {
		return
	}
	f := math.Exp(-t.lambda * float64(dt))
	for d := range b.counts {
		b.counts[d] *= f
	}
	b.asOf = at
}

// Observe folds a dated report into the tracker. Reports may arrive out
// of order; evidence older than a block's current timestamp is
// discounted by the decay it would have suffered, which makes Observe
// order-independent.
func (t *Tracker) Observe(dim core.Dimension, addrs ipset.Set, at time.Time) error {
	if dim > core.DimPhish {
		return fmt.Errorf("tracker: unknown dimension %v", dim)
	}
	if at.After(t.now) {
		t.now = at
	}
	var err error
	addrs.Each(func(a netaddr.Addr) bool {
		base := a.Mask(t.cfg.Bits)
		b := t.blocks[base]
		if b == nil {
			b = &blockState{asOf: at}
			t.blocks[base] = b
		}
		if at.Before(b.asOf) {
			// Late arrival: discount to the block's clock.
			b.counts[dim] += math.Exp(-t.lambda * float64(b.asOf.Sub(at)))
		} else {
			t.decayTo(b, at)
			b.counts[dim]++
		}
		return true
	})
	return err
}

// AdvanceTo moves the tracker clock forward (evidence decays lazily; this
// only affects Now and subsequent scoring).
func (t *Tracker) AdvanceTo(at time.Time) {
	if at.After(t.now) {
		t.now = at
	}
}

// Score returns the block score for the address as of the tracker clock.
func (t *Tracker) Score(a netaddr.Addr) core.Score {
	return t.ScoreAt(a, t.now)
}

// ScoreAt returns the block score as of an explicit time at or after the
// block's evidence timestamp.
func (t *Tracker) ScoreAt(a netaddr.Addr, at time.Time) core.Score {
	b := t.blocks[a.Mask(t.cfg.Bits)]
	if b == nil {
		return core.Score{}
	}
	return t.scoreOf(b, at)
}

// scoreOf is the §7 score of one block's evidence decayed to at: each
// dimension scores 1 - exp(-k/Tau) of its count k, and the aggregate is
// 1 - Π(1 - d), the chance the block is unclean in any dimension.
func (t *Tracker) scoreOf(b *blockState, at time.Time) core.Score {
	f := 1.0
	if dt := at.Sub(b.asOf); dt > 0 {
		f = math.Exp(-t.lambda * float64(dt))
	}
	var out core.Score
	cleanProduct := 1.0
	for d := range b.counts {
		v := 1 - math.Exp(-b.counts[d]*f/t.cfg.Tau)
		out.ByDim[d] = v
		cleanProduct *= 1 - v
	}
	out.Aggregate = 1 - cleanProduct
	return out
}

// Blocklist returns the block base addresses whose aggregate score, as of
// the tracker clock, meets the threshold.
func (t *Tracker) Blocklist(threshold float64) ipset.Set {
	b := ipset.NewBuilder(0)
	for base, st := range t.blocks {
		if t.scoreOf(st, t.now).Aggregate >= threshold {
			b.Add(base)
		}
	}
	return b.Build()
}

// ScoredBlock pairs a block with its score for ranking output.
type ScoredBlock struct {
	Block netaddr.Block
	Score core.Score
}

// Rank returns the k blocks with the highest aggregate score as of the
// tracker clock, descending; ties break toward lower base addresses so
// the order is deterministic.
func (t *Tracker) Rank(k int) []ScoredBlock {
	all := make([]ScoredBlock, 0, len(t.blocks))
	for base, st := range t.blocks {
		all = append(all, ScoredBlock{Block: base.Block(t.cfg.Bits), Score: t.scoreOf(st, t.now)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score.Aggregate != all[j].Score.Aggregate {
			return all[i].Score.Aggregate > all[j].Score.Aggregate
		}
		return all[i].Block.Base() < all[j].Block.Base()
	})
	return all[:min(k, len(all))]
}
