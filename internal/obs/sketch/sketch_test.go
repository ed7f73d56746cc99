package sketch

import (
	"math"
	"math/rand"
	"testing"
)

func TestCMSExactOnSparseStream(t *testing.T) {
	c := NewCMS(4, 12)
	for i := 0; i < 100; i++ {
		for j := 0; j <= i; j++ {
			c.Inc(uint32(i))
		}
	}
	// 100 keys in 4096 cells: collisions possible but estimates must
	// never undershoot.
	for i := 0; i < 100; i++ {
		if got := c.Estimate(uint32(i)); got < uint32(i+1) {
			t.Fatalf("Estimate(%d) = %d, below true count %d", i, got, i+1)
		}
	}
}

func TestCMSNeverUnderestimates(t *testing.T) {
	c := NewCMS(3, 6) // tiny 3x64 grid to force collisions
	rng := rand.New(rand.NewSource(7))
	truth := map[uint32]uint32{}
	for i := 0; i < 20000; i++ {
		k := uint32(rng.Intn(500))
		truth[k]++
		c.Inc(k)
	}
	for k, want := range truth {
		if got := c.Estimate(k); got < want {
			t.Fatalf("Estimate(%d) = %d underestimates true %d", k, got, want)
		}
	}
}

func TestCMSAddDelta(t *testing.T) {
	c := NewCMS(0, 0) // defaults
	if c.depth != defaultCMSDepth || c.Width() != 1<<defaultCMSWidthBits {
		t.Fatalf("defaults: got %dx%d", c.depth, c.Width())
	}
	c.Add(42, 10)
	c.Add(42, 5)
	if got := c.Estimate(42); got != 15 {
		t.Fatalf("Estimate(42) = %d, want 15", got)
	}
	if got := c.Estimate(43); got != 0 {
		t.Fatalf("Estimate(43) = %d, want 0", got)
	}
}

func TestCMSMergeDimensionMismatch(t *testing.T) {
	a, b := NewCMS(4, 12), NewCMS(4, 10)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched widths should error")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merging nil: %v", err)
	}
}

func TestTopKExactUnderCapacity(t *testing.T) {
	tk := NewTopK(16)
	for i := 0; i < 10; i++ {
		for j := 0; j <= i; j++ {
			tk.Inc(uint32(100 + i))
		}
	}
	es := tk.Entries()
	if len(es) != 10 {
		t.Fatalf("got %d entries, want 10", len(es))
	}
	if es[0].Key != 109 || es[0].Count != 10 || es[0].Err != 0 {
		t.Fatalf("top entry = %+v, want key 109 count 10 err 0", es[0])
	}
	if tk.Min() != 0 {
		t.Fatalf("Min() = %d on an under-capacity table, want 0", tk.Min())
	}
}

func TestTopKGuaranteesHeavyHitters(t *testing.T) {
	// Space-saving guarantee: with k counters, any key with true
	// frequency > N/k is present, and counts bound truth from above.
	tk := NewTopK(8)
	rng := rand.New(rand.NewSource(11))
	truth := map[uint32]uint64{}
	const n = 50000
	for i := 0; i < n; i++ {
		var k uint32
		if rng.Intn(100) < 60 {
			k = uint32(rng.Intn(4)) // 4 heavy keys share 60%
		} else {
			k = uint32(1000 + rng.Intn(5000)) // long uniform tail
		}
		truth[k]++
		tk.Inc(k)
	}
	es := tk.Entries()
	present := map[uint32]Entry{}
	for _, e := range es {
		present[e.Key] = e
	}
	for k, want := range truth {
		e, ok := present[k]
		if want > n/8 && !ok {
			t.Fatalf("heavy key %d (count %d > N/k) missing from summary", k, want)
		}
		if ok {
			if e.Count < want {
				t.Fatalf("key %d: count %d underestimates true %d", k, e.Count, want)
			}
			if e.Count-e.Err > want {
				t.Fatalf("key %d: count-err %d exceeds true %d", k, e.Count-e.Err, want)
			}
		}
	}
}

func TestTopKEvictionChurn(t *testing.T) {
	// Rotate through many more keys than capacity to exercise the
	// tombstone/rebuild path; then verify the index still resolves by
	// hammering one key and checking it dominates.
	tk := NewTopK(8)
	for i := 0; i < 10000; i++ {
		tk.Inc(uint32(i % 100))
	}
	for i := 0; i < 5000; i++ {
		tk.Inc(7777)
	}
	es := tk.Entries()
	if es[0].Key != 7777 {
		t.Fatalf("top key = %d, want 7777", es[0].Key)
	}
	if es[0].Count < 5000 {
		t.Fatalf("top count = %d, want ≥ 5000", es[0].Count)
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, distinct := range []int{100, 5000, 200000} {
		h := NewHLL(12)
		for i := 0; i < distinct; i++ {
			h.Add(uint32(i * 2654435761)) // spread the key space
			h.Add(uint32(i * 2654435761)) // duplicates must not count
		}
		est := h.Estimate()
		rel := math.Abs(est-float64(distinct)) / float64(distinct)
		// 5 standard errors (1.04/√m) at p=12 ≈ 8%; deterministic hash,
		// fixed stream, so this either always passes or never does.
		if rel > 5*1.04/math.Sqrt(1<<12) {
			t.Fatalf("HLL(%d distinct): estimate %.0f off by %.1f%%", distinct, est, rel*100)
		}
	}
}

func TestHLLMergePrecisionMismatch(t *testing.T) {
	a, b := NewHLL(12), NewHLL(10)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging mismatched precisions should error")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merging nil: %v", err)
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	// Fixed seeds: two sketches fed the same stream are identical.
	a, b := NewCMS(4, 10), NewCMS(4, 10)
	ha, hb := NewHLL(10), NewHLL(10)
	for i := 0; i < 1000; i++ {
		k := uint32(i * 31)
		a.Inc(k)
		b.Inc(k)
		ha.Add(k)
		hb.Add(k)
	}
	for k := uint32(0); k < 1000*31; k += 31 {
		if a.Estimate(k) != b.Estimate(k) {
			t.Fatalf("CMS instances disagree on key %d", k)
		}
	}
	if ha.Estimate() != hb.Estimate() {
		t.Fatal("HLL instances disagree")
	}
}
