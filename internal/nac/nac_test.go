package nac

import (
	"testing"
	"testing/quick"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

func TestBuildValidation(t *testing.T) {
	pop := ipset.MustParse("1.2.3.4")
	cases := []func() error{
		func() error { _, err := Build(ipset.Set{}, 10, 8, 24); return err },
		func() error { _, err := Build(pop, 0, 8, 24); return err },
		func() error { _, err := Build(pop, 10, -1, 24); return err },
		func() error { _, err := Build(pop, 10, 8, 33); return err },
		func() error { _, err := Build(pop, 10, 24, 8); return err },
	}
	for i, fn := range cases {
		if fn() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestClustersPartitionAndBound(t *testing.T) {
	rng := stats.NewRNG(1)
	// Dense region: 500 addrs in one /16; sparse region: 20 addrs in
	// another /8.
	b := ipset.NewBuilder(520)
	seen := map[netaddr.Addr]struct{}{}
	for len(seen) < 500 {
		a := netaddr.MakeAddr(60, 10, byte(rng.Intn(256)), byte(rng.Intn(256)))
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			b.Add(a)
		}
	}
	for len(seen) < 520 {
		a := netaddr.MakeAddr(80, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			b.Add(a)
		}
	}
	pop := b.Build()
	c, err := Build(pop, 64, 8, 28)
	if err != nil {
		t.Fatal(err)
	}
	// Every population address belongs to exactly one cluster.
	counts := make(map[netaddr.Block]int)
	pop.Each(func(a netaddr.Addr) bool {
		blk, ok := c.ClusterOf(a)
		if !ok {
			t.Fatalf("address %v not in any cluster", a)
		}
		counts[blk]++
		return true
	})
	// Cluster bound respected (no cluster shorter than maxBits exceeds
	// the cap).
	for blk, n := range counts {
		if n > 64 && blk.Bits() < 28 {
			t.Errorf("cluster %v holds %d > 64 addresses", blk, n)
		}
	}
	// Heterogeneity: the dense /16 produced longer prefixes than the
	// sparse /8.
	var denseBits, sparseBits int
	for _, blk := range c.Clusters() {
		if uint32(blk.Base())>>24 == 60 && blk.Bits() > denseBits {
			denseBits = blk.Bits()
		}
		if uint32(blk.Base())>>24 == 80 && sparseBits == 0 {
			sparseBits = blk.Bits()
		}
	}
	if denseBits <= sparseBits {
		t.Errorf("dense region max bits %d not beyond sparse %d", denseBits, sparseBits)
	}
}

func TestClustersDisjointSorted(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		pop := ipset.FromUint32s(raw)
		c, err := Build(pop, 4, 8, 30)
		if err != nil {
			return false
		}
		blocks := c.Clusters()
		for i := 1; i < len(blocks); i++ {
			if blocks[i-1].Base() >= blocks[i].Base() {
				return false
			}
			if blocks[i-1].Contains(blocks[i].Base()) {
				return false // overlap
			}
		}
		// Full coverage of the population.
		covered := true
		pop.Each(func(a netaddr.Addr) bool {
			if _, ok := c.ClusterOf(a); !ok {
				covered = false
				return false
			}
			return true
		})
		return covered
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterOfMisses(t *testing.T) {
	pop := ipset.MustParse("10.1.1.1 10.1.1.2")
	c, err := Build(pop, 10, 16, 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.ClusterOf(netaddr.MustParseAddr("99.0.0.1")); ok {
		t.Error("address outside population space matched a cluster")
	}
	if _, ok := c.ClusterOf(netaddr.MustParseAddr("0.0.0.1")); ok {
		t.Error("address before first cluster matched")
	}
}

func TestCoverCount(t *testing.T) {
	pop := ipset.MustParse("10.1.0.1 10.1.0.2 10.2.0.1 20.1.0.1")
	c, err := Build(pop, 2, 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CoverCount(pop); got != c.Len() && got < 2 {
		t.Errorf("CoverCount(pop) = %d of %d clusters", got, c.Len())
	}
	sub := ipset.MustParse("10.1.0.1")
	if got := c.CoverCount(sub); got != 1 {
		t.Errorf("CoverCount(single) = %d", got)
	}
	if got := c.CoverCount(ipset.MustParse("99.9.9.9")); got != 0 {
		t.Errorf("CoverCount(outside) = %d", got)
	}
}

func TestHeterogeneityStats(t *testing.T) {
	rng := stats.NewRNG(3)
	b := ipset.NewBuilder(1000)
	seen := map[netaddr.Addr]struct{}{}
	// Very dense /24 plus scattered /8 background.
	for len(seen) < 200 {
		a := netaddr.MakeAddr(50, 1, 1, byte(1+rng.Intn(254)))
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			b.Add(a)
		}
	}
	for len(seen) < 400 {
		a := netaddr.MakeAddr(50, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			b.Add(a)
		}
	}
	pop := b.Build()
	c, err := Build(pop, 32, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	spans := c.SpanStats()
	// The paper's objection: cluster sizes span orders of magnitude.
	if spans.Max/spans.Min < 100 {
		t.Errorf("span dispersion %v..%v too uniform for the ablation to bite", spans.Min, spans.Max)
	}
	pops := c.PopulationStats(pop)
	if pops.Max > 32 {
		// Only permissible at max depth.
		t.Logf("note: cluster at max depth holds %v members", pops.Max)
	}
	if pops.N != c.Len() {
		t.Errorf("population stats over %d clusters, want %d", pops.N, c.Len())
	}
}
