package stats

import (
	"math"
	"sort"
	"testing"
)

func TestBetaMoments(t *testing.T) {
	r := NewRNG(20)
	alpha, beta := 0.5, 4.0
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Beta(alpha, beta)
		if v < 0 || v > 1 {
			t.Fatalf("Beta variate %v out of [0,1]", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	wantMean := alpha / (alpha + beta)
	if math.Abs(mean-wantMean) > 0.01 {
		t.Errorf("Beta(%v,%v) mean = %v, want %v", alpha, beta, mean, wantMean)
	}
	variance := sumSq/n - mean*mean
	wantVar := alpha * beta / ((alpha + beta) * (alpha + beta) * (alpha + beta + 1))
	if math.Abs(variance-wantVar) > 0.005 {
		t.Errorf("Beta variance = %v, want %v", variance, wantVar)
	}
}

func TestBetaPanics(t *testing.T) {
	r := NewRNG(21)
	for _, c := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Beta(%v,%v) did not panic", c[0], c[1])
				}
			}()
			r.Beta(c[0], c[1])
		}()
	}
}

func TestGammaMean(t *testing.T) {
	r := NewRNG(22)
	for _, shape := range []float64{0.3, 1, 2.5, 9} {
		const n = 60000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Gamma(shape)
			if v < 0 {
				t.Fatalf("Gamma(%v) produced %v < 0", shape, v)
			}
			sum += v
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.06*math.Max(shape, 1) {
			t.Errorf("Gamma(%v) mean = %v", shape, mean)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(23)
	for _, lambda := range []float64{0.5, 3, 40, 1000} {
		const n = 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*math.Max(lambda, 1) {
			t.Errorf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 {
		t.Error("Poisson(0) should be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(24)
	z := NewZipf(r, 100, 1.0)
	const n = 100000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		v := z.Draw()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 should be drawn roughly twice as often as rank 1, and far more
	// often than rank 50.
	if counts[0] < counts[1] {
		t.Errorf("Zipf rank 0 (%d) not more frequent than rank 1 (%d)", counts[0], counts[1])
	}
	if counts[0] < 10*counts[50] {
		t.Errorf("Zipf not heavy-tailed: rank0=%d rank50=%d", counts[0], counts[50])
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(25)
	const n = 60000
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = r.LogNormal(3, 1)
	}
	sort.Float64s(sample)
	med := quantileSorted(sample, 0.5)
	want := math.Exp(3)
	if math.Abs(med-want)/want > 0.05 {
		t.Errorf("LogNormal(3,1) median = %v, want ~%v", med, want)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := NewRNG(27)
	for _, c := range []struct {
		n int
		p float64
	}{{10, 0.3}, {64, 0.5}, {500, 0.02}, {10000, 0.7}} {
		const draws = 20000
		sum := 0.0
		for i := 0; i < draws; i++ {
			v := r.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", c.n, c.p, v)
			}
			sum += float64(v)
		}
		mean := sum / draws
		want := float64(c.n) * c.p
		if math.Abs(mean-want) > 0.05*math.Max(want, 1) {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, mean, want)
		}
	}
	if r.Binomial(0, 0.5) != 0 || r.Binomial(10, 0) != 0 || r.Binomial(10, 1) != 10 {
		t.Error("Binomial edge cases wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Binomial(-1, .5) did not panic")
		}
	}()
	r.Binomial(-1, 0.5)
}
