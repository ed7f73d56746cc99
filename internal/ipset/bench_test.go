package ipset

import (
	"sync"
	"testing"

	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

func benchSets(b *testing.B, n int) (Set, Set) {
	b.Helper()
	rng := stats.NewRNG(1)
	return randomSet(rng, n), randomSet(rng, n)
}

// Paper-scale fixtures: a million-address control population and a
// 50k-address target report, built once and shared by the sampling
// benchmarks below.
const (
	paperControlSize = 1_000_000
	paperDrawSize    = 30_000
)

var (
	paperOnce    sync.Once
	paperControl Set
	paperTarget  Set
)

func paperSets(b *testing.B) (Set, Set) {
	b.Helper()
	paperOnce.Do(func() {
		rng := stats.NewRNG(42)
		paperControl = randomSet(rng, paperControlSize)
		paperTarget = paperControl.Sample(50_000, rng)
	})
	return paperControl, paperTarget
}

func BenchmarkBuild100k(b *testing.B) {
	rng := stats.NewRNG(2)
	raw := make([]uint32, 100000)
	for i := range raw {
		raw[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := FromUint32s(raw)
		if s.Len() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkBlockCounts100k(b *testing.B) {
	s, _ := benchSets(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := s.BlockCounts(16, 32)
		if counts[0] == 0 {
			b.Fatal("zero")
		}
	}
}

func BenchmarkBlockCountSingle100k(b *testing.B) {
	s, _ := benchSets(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.BlockCount(24) == 0 {
			b.Fatal("zero")
		}
	}
}

func BenchmarkIntersect100k(b *testing.B) {
	s1, s2 := benchSets(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s1.Intersect(s2)
	}
}

func BenchmarkBlockIntersectCount100k(b *testing.B) {
	s1, s2 := benchSets(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s1.BlockIntersectCount(s2, 24)
	}
}

func BenchmarkSample1kOf100k(b *testing.B) {
	s, _ := benchSets(b, 100000)
	rng := stats.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Sample(1000, rng).Len() != 1000 {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkSamplePaperScale draws one control subset per op at paper
// scale. Run with -benchmem: the only allocation is the returned Set's
// own storage (1 alloc/op); all sampler scratch comes from pooled arenas.
func BenchmarkSamplePaperScale(b *testing.B) {
	s, _ := paperSets(b)
	rng := stats.NewRNG(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Sample(paperDrawSize, rng).Len() != paperDrawSize {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkSampleBlocks measures the steady-state draw kernel at paper
// scale: one op is one control draw (mark 30k of 1M ranks by Floyd's
// algorithm, walk them in ascending order, count blocks at every prefix
// in [16,32] in the same pass) inside a single SampleBlocks call of b.N
// draws. With -benchmem this must report 0 allocs/op: per-call setup
// (output matrix, forked generators, arena checkout) amortizes across
// draws, and the per-draw kernel itself never touches the heap.
func BenchmarkSampleBlocks(b *testing.B) {
	s, _ := paperSets(b)
	rng := stats.NewRNG(4)
	b.ReportAllocs()
	b.ResetTimer()
	dist := s.SampleBlocks(b.N, paperDrawSize, 16, 32, rng)
	b.StopTimer()
	if len(dist) != 17 || len(dist[0]) != b.N {
		b.Fatal("bad distribution shape")
	}
}

// BenchmarkSampleBlocksDense is BenchmarkSampleBlocks on the
// Fisher-Yates branch (draw size > |S|/16): the sparse displacement map
// picks the ranks, and the same bitmap walk orders them. Also 0
// allocs/op steady state.
func BenchmarkSampleBlocksDense(b *testing.B) {
	s, _ := paperSets(b)
	rng := stats.NewRNG(5)
	b.ReportAllocs()
	b.ResetTimer()
	dist := s.SampleBlocks(b.N, paperControlSize/8, 16, 32, rng)
	b.StopTimer()
	if len(dist) != 17 || len(dist[0]) != b.N {
		b.Fatal("bad distribution shape")
	}
}

// BenchmarkSampleIntersections measures the steady-state temporal-test
// draw kernel (mark and walk the ranks as BenchmarkSampleBlocks does,
// and count the blocks each draw shares with a 50k-address target at
// every prefix in [16,32] in the same pass). 0 allocs/op steady state.
func BenchmarkSampleIntersections(b *testing.B) {
	s, target := paperSets(b)
	rng := stats.NewRNG(6)
	b.ReportAllocs()
	b.ResetTimer()
	dist := s.SampleIntersections(target, b.N, paperDrawSize, 16, 32, rng)
	b.StopTimer()
	if len(dist) != 17 || len(dist[0]) != b.N {
		b.Fatal("bad distribution shape")
	}
}

func BenchmarkContains(b *testing.B) {
	s, _ := benchSets(b, 100000)
	members := s.Addrs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(members[i%len(members)])
	}
}

// clusteredSet builds a membership shaped like unclean space: addresses
// concentrated in a modest number of /16s. This is the shape the
// containers target.
func clusteredSet(rng *stats.RNG, blocks, perBlock int) Set {
	b := NewBuilder(blocks * perBlock)
	for k := 0; k < blocks; k++ {
		base := rng.Uint32() &^ 0xffff
		for i := 0; i < perBlock; i++ {
			b.Add(netaddr.Addr(base | rng.Uint32()&0xffff))
		}
	}
	return b.Build()
}

// BenchmarkCompress1M compresses a clustered ~1M-address set's sorted
// members into containers, the step every Build ends with.
func BenchmarkCompress1M(b *testing.B) {
	rng := stats.NewRNG(8)
	members := clusteredSet(rng, 128, 8192).raw()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compressSorted(members).n != len(members) {
			b.Fatal("bad compress")
		}
	}
}

// BenchmarkCompressedBlockCounts answers |C_n| for every n in [0,32]
// from container metadata alone — no decompression.
func BenchmarkCompressedBlockCounts(b *testing.B) {
	rng := stats.NewRNG(8)
	s := clusteredSet(rng, 128, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.BlockCounts(0, 32)[32] != s.Len() {
			b.Fatal("bad counts")
		}
	}
}

func BenchmarkCompressedIntersect(b *testing.B) {
	rng := stats.NewRNG(8)
	x := clusteredSet(rng, 128, 8192)
	y := clusteredSet(rng, 128, 8192).Union(x.Sample(x.Len()/4, rng))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Intersect(y)
	}
}

func BenchmarkCompressedBlockIntersectCount(b *testing.B) {
	rng := stats.NewRNG(8)
	x := clusteredSet(rng, 128, 8192)
	y := clusteredSet(rng, 128, 8192).Union(x.Sample(x.Len()/4, rng))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.BlockIntersectCount(y, 24)
	}
}

// BenchmarkBuilderAddSetSorted measures re-adding an already-built set.
// The sorted fast path turns Build into dedup and compression only —
// compare against BenchmarkBuilderAddSetShuffled, which forces the sort.
func BenchmarkBuilderAddSetSorted(b *testing.B) {
	rng := stats.NewRNG(9)
	s := randomSet(rng, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(0)
		bu.AddSet(s)
		if bu.Build().Len() != s.Len() {
			b.Fatal("bad build")
		}
	}
}

func BenchmarkBuilderAddSetShuffled(b *testing.B) {
	rng := stats.NewRNG(9)
	s := randomSet(rng, 1_000_000)
	// One out-of-order address defeats the sorted fast path, so this
	// measures the full sort Build used to pay unconditionally.
	first := uint32(s.At(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(0)
		bu.AddSet(s)
		bu.Add(netaddr.Addr(first))
		if bu.Build().Len() != s.Len() {
			b.Fatal("bad build")
		}
	}
}
