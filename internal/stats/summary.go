package stats

import (
	"fmt"
	"math"
	"sort"
)

// quantileSorted returns the q-quantile (0 <= q <= 1) of the sorted sample
// s using linear interpolation between order statistics (type-7, the R
// default).
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	i := int(math.Floor(h))
	if i >= n-1 {
		return s[n-1]
	}
	frac := h - float64(i)
	// Convex combination rather than s[i] + frac*(s[i+1]-s[i]): the
	// difference form overflows for operands near ±MaxFloat64.
	return s[i]*(1-frac) + s[i+1]*frac
}

// Mean returns the arithmetic mean; zero for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range sample {
		total += v
	}
	return total / float64(len(sample))
}

// Boxplot is the five-number summary plus mean that the paper's figures
// draw for the 1000 random control subsets at each prefix length.
type Boxplot struct {
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
	N      int
}

// Summarize computes the boxplot summary of a sample. It panics on an
// empty sample.
func Summarize(sample []float64) Boxplot {
	if len(sample) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return Boxplot{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
		N:      len(s),
	}
}

// String renders the summary compactly for experiment output.
func (b Boxplot) String() string {
	return fmt.Sprintf("min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f mean=%.1f n=%d",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.N)
}
