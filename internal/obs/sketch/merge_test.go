package sketch

import (
	"math"
	"math/rand"
	"testing"
)

// The cross-shard merge property: each dnsbl shard builds its own
// sketches over the packets the kernel happened to route to it, and
// /debug/topk merges them at scrape time. These tests check the
// property that makes that design honest — the merged estimates obey
// the same error bounds as one global sketch fed the concatenated
// stream. Streams and hashes are fully deterministic, so the
// assertions are exact, not flaky.

// zipfStream synthesizes a skewed query stream (what DNSBL traffic
// looks like: a few hot resolvers and /24s, a long tail) and deals it
// round-robin across k shard-local streams.
func zipfStream(n, k int) (all []uint32, shards [][]uint32) {
	rng := rand.New(rand.NewSource(42))
	z := rand.NewZipf(rng, 1.3, 1, 1<<20)
	all = make([]uint32, n)
	shards = make([][]uint32, k)
	for i := range all {
		all[i] = uint32(z.Uint64())*2654435761 + 17 // disperse key identities
	}
	for i, key := range all {
		shards[i%k] = append(shards[i%k], key)
	}
	return all, shards
}

func TestMergedCMSWithinGlobalErrorBounds(t *testing.T) {
	const (
		n      = 200000
		kShard = 8
	)
	all, shards := zipfStream(n, kShard)

	truth := map[uint32]uint32{}
	for _, key := range all {
		truth[key]++
	}

	global := NewCMS(4, 12)
	for _, key := range all {
		global.Inc(key)
	}
	merged := NewCMS(4, 12)
	for _, sh := range shards {
		c := NewCMS(4, 12)
		for _, key := range sh {
			c.Inc(key)
		}
		if err := merged.Merge(c); err != nil {
			t.Fatal(err)
		}
	}

	// With probability ≥ 1-exp(-depth) every estimate is within e·N/width
	// of the truth, for one sketch over the stream or the merge alike.
	bound := math.E * float64(len(all)) / float64(global.Width())
	for key, want := range truth {
		g, m := global.Estimate(key), merged.Estimate(key)
		if g < want || m < want {
			t.Fatalf("key %d: estimates global=%d merged=%d below true %d", key, g, m, want)
		}
		if float64(g-want) > bound {
			t.Fatalf("key %d: global overshoot %d exceeds bound %.0f", key, g-want, bound)
		}
		if float64(m-want) > bound {
			t.Fatalf("key %d: merged overshoot %d exceeds bound %.0f", key, m-want, bound)
		}
	}
}

func TestMergedTopKWithinGlobalErrorBounds(t *testing.T) {
	const (
		n      = 200000
		kShard = 8
		k      = 64
	)
	all, shards := zipfStream(n, kShard)

	truth := map[uint32]uint64{}
	for _, key := range all {
		truth[key]++
	}

	global := NewTopK(k)
	for _, key := range all {
		global.Inc(key)
	}
	parts := make([]*TopK, kShard)
	for i, sh := range shards {
		parts[i] = NewTopK(k)
		for _, key := range sh {
			parts[i].Inc(key)
		}
	}
	merged := MergeTopK(k, parts...)

	// Both views must keep the space-saving invariant
	// count-err ≤ true ≤ count, with total error ≤ N/k either way.
	checkEntries := func(name string, es []Entry) {
		for _, e := range es {
			want := uint64(truth[e.Key])
			if e.Count < want {
				t.Fatalf("%s: key %d count %d underestimates true %d", name, e.Key, e.Count, want)
			}
			if e.Count-e.Err > want {
				t.Fatalf("%s: key %d count-err %d exceeds true %d", name, e.Key, e.Count-e.Err, want)
			}
			if e.Err > n/k {
				t.Fatalf("%s: key %d error bound %d exceeds N/k = %d", name, e.Key, e.Err, n/k)
			}
		}
	}
	checkEntries("global", global.Entries())
	checkEntries("merged", merged)

	// Every key heavier than N/k must appear in both.
	inMerged := map[uint32]bool{}
	for _, e := range merged {
		inMerged[e.Key] = true
	}
	inGlobal := map[uint32]bool{}
	for _, e := range global.Entries() {
		inGlobal[e.Key] = true
	}
	for key, want := range truth {
		if want > n/k {
			if !inGlobal[key] {
				t.Fatalf("global summary lost heavy key %d (count %d)", key, want)
			}
			if !inMerged[key] {
				t.Fatalf("merged summary lost heavy key %d (count %d)", key, want)
			}
		}
	}
}

func TestMergedHLLEqualsGlobal(t *testing.T) {
	const (
		n      = 150000
		kShard = 8
	)
	all, shards := zipfStream(n, kShard)

	distinct := map[uint32]bool{}
	for _, key := range all {
		distinct[key] = true
	}

	global := NewHLL(12)
	for _, key := range all {
		global.Add(key)
	}
	merged := NewHLL(12)
	for _, sh := range shards {
		h := NewHLL(12)
		for _, key := range sh {
			h.Add(key)
		}
		if err := merged.Merge(h); err != nil {
			t.Fatal(err)
		}
	}

	// HLL merge is lossless: register-wise max over a partition equals
	// the global registers exactly, so the estimates must be identical
	// — stronger than "within the same bounds".
	ge, me := global.Estimate(), merged.Estimate()
	if ge != me {
		t.Fatalf("merged estimate %.2f != global estimate %.2f", me, ge)
	}
	rel := math.Abs(ge-float64(len(distinct))) / float64(len(distinct))
	if rel > 5*1.04/math.Sqrt(1<<12) { // 5 standard errors, 1.04/√m
		t.Fatalf("estimate %.0f off true %d by %.1f%% (> 5σ)", ge, len(distinct), rel*100)
	}
}
