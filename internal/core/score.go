package core

import (
	"fmt"
	"math"
	"sort"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// Dimension is one indicator class contributing to the multidimensional
// uncleanliness metric sketched in §7. The phishing result (§5.2) showed a
// single scalar cannot capture uncleanliness: bot history predicts
// scanning and spamming but not phishing, so each class scores its own
// dimension.
type Dimension uint8

// Dimensions.
const (
	DimBot Dimension = iota
	DimScan
	DimSpam
	DimPhish
	numDimensions
)

var dimensionNames = [...]string{
	DimBot:   "bot",
	DimScan:  "scan",
	DimSpam:  "spam",
	DimPhish: "phish",
}

// String returns the dimension name.
func (d Dimension) String() string {
	if int(d) < len(dimensionNames) {
		return dimensionNames[d]
	}
	return "unknown"
}

// Score is a per-network uncleanliness estimate.
type Score struct {
	// ByDim holds the per-dimension scores in [0, 1].
	ByDim [4]float64
	// Aggregate is 1 - Π(1 - d_i): the probability that a network is
	// unclean in at least one dimension, treating dimensions as
	// independent (which §5.2 showed phishing essentially is).
	Aggregate float64
}

// Scorer accumulates evidence from reports and scores networks at a fixed
// prefix length. The per-dimension score for a block with k reported
// addresses is 1 - exp(-k/tau): zero evidence scores zero, each further
// sighting has diminishing effect, and the score saturates at 1.
type Scorer struct {
	bits   int
	tau    float64
	counts map[netaddr.Addr]*[4]float64
}

// NewScorer builds a scorer over n-bit blocks. tau is the evidence scale:
// the count at which a dimension reaches 1-1/e ≈ 0.63.
func NewScorer(bits int, tau float64) (*Scorer, error) {
	if bits < 0 || bits > 32 {
		return nil, fmt.Errorf("core: scorer prefix length %d out of range", bits)
	}
	if tau <= 0 {
		return nil, fmt.Errorf("core: scorer tau must be positive")
	}
	return &Scorer{bits: bits, tau: tau, counts: make(map[netaddr.Addr]*[4]float64)}, nil
}

// AddReport accumulates one report's addresses into a dimension with the
// given weight (1 for a fresh report; decayed below 1 for stale ones).
func (s *Scorer) AddReport(dim Dimension, addrs ipset.Set, weight float64) {
	if dim >= numDimensions || weight <= 0 {
		return
	}
	addrs.Each(func(a netaddr.Addr) bool {
		base := a.Mask(s.bits)
		c := s.counts[base]
		if c == nil {
			c = new([4]float64)
			s.counts[base] = c
		}
		c[dim] += weight
		return true
	})
}

// BlockCount returns the number of blocks with any evidence.
func (s *Scorer) BlockCount() int { return len(s.counts) }

// Score returns the uncleanliness of the block containing a. Unseen
// blocks score zero in every dimension.
func (s *Scorer) Score(a netaddr.Addr) Score {
	c := s.counts[a.Mask(s.bits)]
	if c == nil {
		return Score{}
	}
	return s.scoreOf(c)
}

func (s *Scorer) scoreOf(c *[4]float64) Score {
	var out Score
	cleanProduct := 1.0
	for d := 0; d < int(numDimensions); d++ {
		v := 1 - math.Exp(-c[d]/s.tau)
		out.ByDim[d] = v
		cleanProduct *= 1 - v
	}
	out.Aggregate = 1 - cleanProduct
	return out
}

// ScoredBlock pairs a block with its score for ranking output.
type ScoredBlock struct {
	Block netaddr.Block
	Score Score
}

// Rank returns the k blocks with the highest aggregate score, descending;
// ties break toward lower base addresses for determinism.
func (s *Scorer) Rank(k int) []ScoredBlock {
	all := make([]ScoredBlock, 0, len(s.counts))
	for base, c := range s.counts {
		all = append(all, ScoredBlock{Block: base.Block(s.bits), Score: s.scoreOf(c)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score.Aggregate != all[j].Score.Aggregate {
			return all[i].Score.Aggregate > all[j].Score.Aggregate
		}
		return all[i].Block.Base() < all[j].Block.Base()
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Blocklist returns the blocks whose aggregate score meets the threshold,
// as a set of block base addresses — input for blocklist.Compile.
func (s *Scorer) Blocklist(threshold float64) ipset.Set {
	b := ipset.NewBuilder(0)
	for base, c := range s.counts {
		if s.scoreOf(c).Aggregate >= threshold {
			b.Add(base)
		}
	}
	return b.Build()
}
