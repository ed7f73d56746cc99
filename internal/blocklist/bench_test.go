package blocklist

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/simnet"
	"unclean/internal/stats"
)

func benchTrie(nRules int) *Trie {
	rng := stats.NewRNG(9)
	t := &Trie{}
	for i := 0; i < nRules; i++ {
		t.Insert(netaddr.Addr(rng.Uint32()).Block(16+rng.Intn(17)), "bench")
	}
	return t
}

func BenchmarkTrieInsert(b *testing.B) {
	rng := stats.NewRNG(10)
	blocks := make([]netaddr.Block, 10000)
	for i := range blocks {
		blocks[i] = netaddr.Addr(rng.Uint32()).Block(24)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &Trie{}
		for _, blk := range blocks {
			t.Insert(blk, "x")
		}
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	t := benchTrie(10000)
	rng := stats.NewRNG(11)
	probes := make([]netaddr.Addr, 1024)
	for i := range probes {
		probes[i] = netaddr.Addr(rng.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(probes[i%len(probes)])
	}
}

func BenchmarkTrieWalk(b *testing.B) {
	t := benchTrie(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		t.Walk(func(Entry) bool {
			n++
			return true
		})
		if n == 0 {
			b.Fatal("empty walk")
		}
	}
}

// ---- compiled matcher vs trie at 100k rules ----

// benchRules is the rule count for the Lookup-vs-Blocks comparison; the
// acceptance bar is Matcher >= 5x Trie at this size with 0 allocs/op.
const benchRules = 100_000

var benchCompiled struct {
	once   sync.Once
	trie   *Trie
	m      *Matcher
	probes []netaddr.Addr
}

func benchMatcherSetup() (*Trie, *Matcher, []netaddr.Addr) {
	benchCompiled.once.Do(func() {
		benchCompiled.trie = benchTrie(benchRules)
		benchCompiled.m = Compile(benchCompiled.trie)
		rng := stats.NewRNG(13)
		probes := make([]netaddr.Addr, 4096)
		for i := range probes {
			probes[i] = netaddr.Addr(rng.Uint32())
		}
		benchCompiled.probes = probes
	})
	return benchCompiled.trie, benchCompiled.m, benchCompiled.probes
}

func BenchmarkTrieBlocks(b *testing.B) {
	tr, _, probes := benchMatcherSetup()
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if tr.Blocks(probes[i%len(probes)]) {
			hits++
		}
	}
	if b.N > 0 && hits < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkMatcherLookup(b *testing.B) {
	_, m, probes := benchMatcherSetup()
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if m.Blocks(probes[i%len(probes)]) {
			hits++
		}
	}
	if b.N > 0 && hits < 0 {
		b.Fatal("impossible")
	}
}

// benchMatcherSink keeps BenchmarkMatcherCompile's result live.
var benchMatcherSink *Matcher

func BenchmarkMatcherCompile(b *testing.B) {
	tr, _, _ := benchMatcherSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMatcherSink = Compile(tr)
	}
}

// ---- compiling and probing the §6 sweep set ----

// randomSeed returns n random addresses as a set: the shape of
// R_bot-test, which holds 186 addresses at every scale.
func randomSeed(rng *stats.RNG, n int) ipset.Set {
	b := ipset.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(netaddr.Addr(rng.Uint32()))
	}
	return b.Build()
}

// benchSetSink keeps the set benchmarks' results live.
var benchSetSink *MatcherSet

// BenchmarkSweepSetCompile compiles C_n(seed) for every n in the range
// into one MatcherSet: Table 3's shape (186 addresses at /24–/32) and a
// larger seed over a wider range.
func BenchmarkSweepSetCompile(b *testing.B) {
	for _, c := range []struct{ addrs, lo, hi int }{{186, 24, 32}, {2000, 16, 32}} {
		seed := randomSeed(stats.NewRNG(14), c.addrs)
		b.Run(fmt.Sprintf("addrs=%d,n=%d-%d", c.addrs, c.lo, c.hi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ms, err := SweepSet(seed, c.lo, c.hi)
				if err != nil {
					b.Fatal(err)
				}
				benchSetSink = ms
			}
		})
	}
}

// BenchmarkMatcherSetMask probes Table 3's sweep set: half the probes
// share a /24 with a seed address, as the partition members it scores
// do, and half are random.
func BenchmarkMatcherSetMask(b *testing.B) {
	rng := stats.NewRNG(15)
	seed := randomSeed(rng, 186)
	ms, err := SweepSet(seed, 24, 32)
	if err != nil {
		b.Fatal(err)
	}
	near := seed.Addrs()
	probes := make([]netaddr.Addr, 4096)
	for i := range probes {
		probes[i] = netaddr.Addr(rng.Uint32())
		if i%2 == 0 {
			probes[i] = near[rng.Intn(len(near))]&^0xff | probes[i]&0xff
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var or uint32
	for i := 0; i < b.N; i++ {
		or |= ms.Mask(probes[i%len(probes)])
	}
	if b.N > 0 && or == 0 {
		b.Fatal("no probe matched")
	}
}

// ---- §6 two-week sweep: one compiled pass vs nine trie passes ----

// benchSweep lazily synthesizes the two-week unclean-window flow log at
// 1/1024 of paper scale, shared by the sweep benchmarks below.
var benchSweep struct {
	once sync.Once
	recs []netflow.Record
	seed ipset.Set
}

func benchSweepSetup() ([]netflow.Record, ipset.Set) {
	benchSweep.once.Do(func() {
		cfg := simnet.DefaultConfig(1.0 / 1024)
		cfg.Seed = 20061001
		w, err := simnet.NewWorld(cfg)
		if err != nil {
			panic(err)
		}
		from := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
		to := time.Date(2006, 10, 14, 0, 0, 0, 0, time.UTC)
		err = w.StreamFlows(from, to, simnet.FlowOptions{
			BenignSourcesPerDay: 400,
			CandidateExtras:     true,
		}, func(_ time.Time, day []netflow.Record) error {
			benchSweep.recs = append(benchSweep.recs, day...)
			return nil
		})
		if err != nil {
			panic(err)
		}
		benchSweep.seed = w.BotTest()
	})
	return benchSweep.recs, benchSweep.seed
}

// benchChunk mirrors the chunk size flowcat streams through the evaluator.
const benchChunk = 8192

// BenchmarkBlockingTable is the §6 end-to-end sweep as shipped: the nine
// C_n(R_bot-test) lists compiled into one MatcherSet, the whole two-week
// flow log streamed through a SweepEvaluator in one pass. The acceptance
// bar is >= 3x BenchmarkBlockingTableNinePass.
func BenchmarkBlockingTable(b *testing.B) {
	recs, seed := benchSweepSetup()
	ms, err := SweepSet(seed, 24, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv := NewSweepEvaluator(ms)
		for off := 0; off < len(recs); off += benchChunk {
			sv.Consume(recs[off:min(off+benchChunk, len(recs))])
		}
		if sv.Sources() == 0 {
			b.Fatal("no sources seen")
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "flows/sec")
}

// BenchmarkBlockingTableNinePass is the seed shape of the same sweep:
// one per-flow trie scan of the flow log per prefix length, each
// against its own C_n trie.
func BenchmarkBlockingTableNinePass(b *testing.B) {
	recs, seed := benchSweepSetup()
	tries := make([]*Trie, 0, 9)
	for n := 24; n <= 32; n++ {
		tries = append(tries, FromSet(seed, n, "sweep"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range tries {
			e := evaluateTrie(tr, recs)
			if e.FlowsBlocked+e.FlowsPassed != len(recs) {
				b.Fatal("lost flows")
			}
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "flows/sec")
}
