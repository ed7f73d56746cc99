// Package core implements the paper's uncleanliness analyses: the spatial
// uncleanliness test (comparative CIDR-block density, §4), the temporal
// uncleanliness test (predictive capacity with the 95% criterion, §5),
// the virtual blocking evaluation (Eqs. 6–9, §6), and the dimensions of
// the multidimensional uncleanliness score the paper proposes as future
// work (§7), which internal/tracker computes.
package core

import (
	"fmt"

	"unclean/internal/ipset"
	"unclean/internal/stats"
)

// PrefixRange is an inclusive range of CIDR prefix lengths. The paper
// restricts analyses to [16, 32]: blocks shorter than /16 are too
// imprecise for filtering and detection (Collins & Reiter).
type PrefixRange struct {
	Lo, Hi int
}

// DefaultPrefixRange returns the paper's [16, 32].
func DefaultPrefixRange() PrefixRange { return PrefixRange{Lo: 16, Hi: 32} }

// Validate checks the range.
func (p PrefixRange) Validate() error {
	if p.Lo < 0 || p.Hi > 32 || p.Lo > p.Hi {
		return fmt.Errorf("core: invalid prefix range [%d,%d]", p.Lo, p.Hi)
	}
	return nil
}

// Len returns the number of prefix lengths in the range.
func (p PrefixRange) Len() int { return p.Hi - p.Lo + 1 }

// DensityRow is one prefix length of a spatial density comparison: the
// unclean report's block count against the empirical control
// distribution (and optionally a naive uniform estimate).
type DensityRow struct {
	// Bits is the prefix length n.
	Bits int
	// Observed is |C_n(R_unclean)|.
	Observed int
	// Control summarizes |C_n(subset)| over the random control subsets.
	Control stats.Boxplot
	// FractionDenser is the fraction of control draws in which the
	// unclean report was at least as dense (Observed <= draw).
	FractionDenser float64
	// Naive is the block count of a size-matched uniform draw over the
	// IANA-populated /8s; zero unless a naive set was supplied.
	Naive int
}

// DensityResult is the outcome of a spatial uncleanliness test.
type DensityResult struct {
	Rows []DensityRow
	// Holds reports Eq. 3: the unclean report is at least as dense as
	// the control median at every prefix length in the range.
	Holds bool
	// Draws is the number of control subsets sampled.
	Draws int
}

// SpatialDensity runs the spatial uncleanliness test (§4.1): it samples
// `draws` random subsets of `control`, each with the unclean report's
// cardinality, and compares block counts at every prefix length in pr.
// naive, if non-empty, supplies the uniform-over-populated-/8s estimate
// plotted in Figure 2; pass ipset.Set{} to omit it.
func SpatialDensity(unclean, control, naive ipset.Set, draws int, pr PrefixRange, rng *stats.RNG) (DensityResult, error) {
	if err := pr.Validate(); err != nil {
		return DensityResult{}, err
	}
	if unclean.IsEmpty() {
		return DensityResult{}, fmt.Errorf("core: empty unclean report")
	}
	if draws < 1 {
		return DensityResult{}, fmt.Errorf("core: need at least one control draw")
	}
	if unclean.Len() > control.Len() {
		return DensityResult{}, fmt.Errorf("core: control population (%d) smaller than unclean report (%d)",
			control.Len(), unclean.Len())
	}
	if !naive.IsEmpty() && naive.Len() != unclean.Len() {
		return DensityResult{}, fmt.Errorf("core: naive estimate cardinality %d != report cardinality %d",
			naive.Len(), unclean.Len())
	}
	observed := unclean.BlockCounts(pr.Lo, pr.Hi)
	dist := control.SampleBlocks(draws, unclean.Len(), pr.Lo, pr.Hi, rng)
	var naiveCounts []int
	if !naive.IsEmpty() {
		naiveCounts = naive.BlockCounts(pr.Lo, pr.Hi)
	}
	res := DensityResult{Holds: true, Draws: draws}
	for n := pr.Lo; n <= pr.Hi; n++ {
		i := n - pr.Lo
		row := DensityRow{
			Bits:     n,
			Observed: observed[i],
			Control:  stats.Summarize(dist[i]),
		}
		denser := 0
		for _, v := range dist[i] {
			if float64(row.Observed) <= v {
				denser++
			}
		}
		row.FractionDenser = float64(denser) / float64(draws)
		if naiveCounts != nil {
			row.Naive = naiveCounts[i]
		}
		if float64(row.Observed) > row.Control.Median {
			res.Holds = false
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
