package stats

import (
	"math"
	"math/bits"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical 64-bit draws in 100", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child1 := parent.Fork(1)
	child2 := parent.Fork(1) // same label, later fork point: must differ
	if child1.Uint64() == child2.Uint64() {
		t.Fatal("forks with same label at different points produced identical streams")
	}
	p1, p2 := NewRNG(7), NewRNG(7)
	c1, c2 := p1.Fork(9), p2.Fork(9)
	for i := 0; i < 10; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("fork is not deterministic")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := NewRNG(2)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from %f", i, c, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v < 0", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.03 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(10)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
}

func TestAdvanceMatchesUint64(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 1_000_000} {
		stepped, jumped := NewRNG(11), NewRNG(11)
		for i := uint64(0); i < n; i++ {
			stepped.Uint64()
		}
		jumped.Advance(n)
		if a, b := stepped.Uint64(), jumped.Uint64(); a != b {
			t.Fatalf("Advance(%d) then Uint64 = %#x, %d Uint64 calls then Uint64 = %#x", n, b, n, a)
		}
	}
}

// unmix64 inverts mix64: each xorshift and each odd multiply in it is a
// bijection on uint64.
func unmix64(z uint64) uint64 {
	z ^= z>>31 ^ z>>62
	z *= inverse64(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inverse64(0xbf58476d1ce4e5b9)
	return z ^ z>>30 ^ z>>60
}

// inverse64 returns the inverse of odd a modulo 2^64. a is its own
// inverse to 3 bits, and each Newton step doubles the correct bits.
func inverse64(a uint64) uint64 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}

func TestIntnOnceFlagsRejection(t *testing.T) {
	for _, z := range []uint64{0, 1, gamma, 0xdeadbeef, math.MaxUint64} {
		if got := unmix64(mix64(z)); got != z {
			t.Fatalf("unmix64(mix64(%#x)) = %#x", z, got)
		}
	}
	for _, n := range []uint64{3, 6, 254, 1<<62 + 1} {
		// Lemire's method rejects output v when the low word of v·n is
		// under 2^64 mod n: always v = 0, and ⌈k·2^64/n⌉ for some k.
		rejecting := []uint64{0}
		for k := uint64(1); k < n && len(rejecting) < 4; k++ {
			v, _ := bits.Div64(k, n-1, n)
			if v*n < -n%n {
				rejecting = append(rejecting, v)
			}
		}
		for _, v := range rejecting {
			// The state one increment before unmix64(v) outputs v next.
			at := func() *RNG { return &RNG{state: unmix64(v) - gamma} }
			if got := at().Uint64(); got != v {
				t.Fatalf("inverted state outputs %#x, want %#x", got, v)
			}
			if _, ok := at().IntnOnce(int(n)); ok {
				t.Fatalf("IntnOnce(%d) accepted output %#x", n, v)
			}
			// Intn discards the output and draws again.
			r, next := at(), at()
			next.Uint64()
			if a, b := r.Intn(int(n)), next.Intn(int(n)); a != b {
				t.Fatalf("Intn(%d) after rejecting %#x = %d, want %d", n, v, a, b)
			}
		}
	}
	// Powers of two take the output's low bits and never reject.
	zero := &RNG{state: unmix64(0) - gamma}
	if v, ok := zero.IntnOnce(256); !ok || v != 0 {
		t.Fatalf("IntnOnce(256) on output 0 = %d, %v", v, ok)
	}
}

func TestIntnOnceMatchesIntn(t *testing.T) {
	a, b := NewRNG(12), NewRNG(12)
	for i := 0; i < 10000; i++ {
		n := 1 + i%300
		v, ok := a.IntnOnce(n)
		if !ok {
			t.Fatalf("draw %d: IntnOnce(%d) rejected", i, n)
		}
		if w := b.Intn(n); v != w {
			t.Fatalf("draw %d: IntnOnce(%d) = %d, Intn = %d", i, n, v, w)
		}
	}
}
