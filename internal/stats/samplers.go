package stats

import "math"

// Beta returns a Beta(alpha, beta) variate. The uncleanliness model draws
// per-network uncleanliness from a beta distribution: small alpha with
// larger beta concentrates mass near zero (most networks clean) with a
// heavy-ish tail of very unclean networks. Implemented as the ratio of two
// gamma variates.
func (r *RNG) Beta(alpha, beta float64) float64 {
	if alpha <= 0 || beta <= 0 {
		panic("stats: Beta parameters must be positive")
	}
	x := r.Gamma(alpha)
	y := r.Gamma(beta)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia-Tsang
// squeeze method, with the standard boost for shape < 1.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("stats: Gamma shape must be positive")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Poisson returns a Poisson(lambda) variate. It uses Knuth's method for
// small lambda and a normal approximation with continuity correction for
// large lambda (where exact inversion would underflow).
func (r *RNG) Poisson(lambda float64) int {
	if lambda < 0 {
		panic("stats: Poisson lambda must be non-negative")
	}
	if lambda == 0 {
		return 0
	}
	if lambda > 500 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	limit := math.Exp(-lambda)
	p := 1.0
	k := 0
	for p > limit {
		p *= r.Float64()
		k++
	}
	return k - 1
}

// Zipf draws integers in [0, n) with probability proportional to
// 1/(i+1)^s. The Internet's host-per-block populations are heavy-tailed
// (Kohler et al.); the Zipf sampler drives that structure in netmodel.
// The sampler precomputes the CDF, so construct once and reuse.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s > 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	if s <= 0 {
		panic("stats: Zipf needs s > 0")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Draw returns the next Zipf-distributed rank.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LogNormal returns exp(mu + sigma*Z) for standard normal Z. Flow byte and
// packet volumes are modelled log-normally.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Binomial returns a Binomial(n, p) variate: the count of successes in n
// Bernoulli(p) trials. Exact simulation for small n, normal approximation
// with clamping for large n — used to model packet sampling.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 || p < 0 || p > 1 {
		panic("stats: Binomial parameters out of range")
	}
	if n == 0 || p == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*r.NormFloat64()))
	if k < 0 {
		return 0
	}
	if k > n {
		return n
	}
	return k
}
