package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileKnown(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := quantileSorted(s, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{0, 10}
	if got := quantileSorted(s, 0.5); got != 5 {
		t.Errorf("Quantile(0.5) of {0,10} = %v, want 5", got)
	}
	if got := quantileSorted([]float64{7}, 0.9); got != 7 {
		t.Errorf("Quantile of singleton = %v, want 7", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		sort.Float64s(sample)
		return quantileSorted(sample, a) <= quantileSorted(sample, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(s); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Error("Mean of an empty sample should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := []float64{9, 1, 5, 3, 7}
	b := Summarize(s)
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 5 {
		t.Errorf("Summarize = %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("quartiles = %v, %v, want 3, 7", b.Q1, b.Q3)
	}
	if b.Mean != 5 {
		t.Errorf("mean = %v, want 5", b.Mean)
	}
	if b.String() == "" {
		t.Error("String empty")
	}
}

func TestSummarizeOrderInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		a := Summarize(sample)
		shuffled := make([]float64, len(sample))
		copy(shuffled, sample)
		sort.Float64s(shuffled)
		b := Summarize(shuffled)
		return a == b && a.Min <= a.Q1 && a.Q1 <= a.Median && a.Median <= a.Q3 && a.Q3 <= a.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
