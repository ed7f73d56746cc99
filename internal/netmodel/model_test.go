package netmodel

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.TargetNetworks = 3000
	cfg.Slash16PerSlash8 = 4
	return cfg
}

func buildSmall(t testing.TB, seed uint64) *Model {
	t.Helper()
	m, err := New(smallConfig(), stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	bad := []Config{
		{},
		func() Config { c := smallConfig(); c.TargetNetworks = 0; return c }(),
		func() Config { c := smallConfig(); c.UncleanAlpha = 0; return c }(),
		func() Config { c := smallConfig(); c.PhishBeta = -1; return c }(),
		func() Config { c := smallConfig(); c.Slash16PerSlash8 = 0; return c }(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg, rng); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestModelDeterministic(t *testing.T) {
	a := buildSmall(t, 42)
	b := buildSmall(t, 42)
	if a.NetworkCount() != b.NetworkCount() {
		t.Fatalf("counts differ: %d vs %d", a.NetworkCount(), b.NetworkCount())
	}
	for i := 0; i < a.NetworkCount(); i++ {
		na, nb := a.NetworkAt(i), b.NetworkAt(i)
		if *na != *nb {
			t.Fatalf("network %d differs: %+v vs %+v", i, na, nb)
		}
	}
}

func TestNetworksSortedAndValid(t *testing.T) {
	m := buildSmall(t, 7)
	if m.NetworkCount() < 500 {
		t.Fatalf("suspiciously few networks: %d", m.NetworkCount())
	}
	var prev netaddr.Addr
	for i := 0; i < m.NetworkCount(); i++ {
		n := m.NetworkAt(i)
		if i > 0 && n.Base <= prev {
			t.Fatalf("networks not strictly sorted at %d", i)
		}
		prev = n.Base
		if n.Base.Mask(24) != n.Base {
			t.Errorf("base %v not /24-aligned", n.Base)
		}
		if n.Hosts < 1 || n.Hosts > 254 {
			t.Errorf("host count %d out of range", n.Hosts)
		}
		if n.Unclean < 0 || n.Unclean > 1 || n.PhishUnclean < 0 || n.PhishUnclean > 1 {
			t.Errorf("uncleanliness out of [0,1]: %+v", n)
		}
		if netaddr.IsReserved(n.Base) {
			t.Errorf("network %v in reserved space", n.Base)
		}
		if m.InObserved(n.Base) {
			t.Errorf("network %v inside the observed network", n.Base)
		}
		if !populated(n.Base) {
			t.Errorf("network %v in unallocated /8", n.Base)
		}
		// Host addresses stay inside the /24.
		first, last := n.Host(0), n.Host(n.Hosts-1)
		if first.Mask(24) != n.Base || last.Mask(24) != n.Base {
			t.Errorf("hosts escape the /24: %v %v", first, last)
		}
		if uint32(first)&0xff == 0 {
			t.Errorf("host at network address: %v", first)
		}
	}
}

func TestHostPanicsOutOfRange(t *testing.T) {
	m := buildSmall(t, 7)
	n := m.NetworkAt(0)
	for _, i := range []int{-1, n.Hosts} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Host(%d) did not panic", i)
				}
			}()
			n.Host(i)
		}()
	}
}

func TestNetworkContains(t *testing.T) {
	m := buildSmall(t, 7)
	n := m.NetworkAt(0)
	if !n.Contains(n.Host(0)) || !n.Contains(n.Host(n.Hosts-1)) {
		t.Error("network should contain its own hosts")
	}
	if n.Contains(n.Base+255) && n.Hosts < 254 {
		// .255 is active only if the host range reaches it; with <254
		// hosts starting at >=1 it can still reach 255, so only check
		// an address in a different /24.
		t.Log("broadcast-edge host active (allowed)")
	}
	other := n.Base + netaddr.Addr(1<<8) // next /24
	if n.Contains(other) {
		t.Error("network must not contain addresses of the next /24")
	}
}

func TestFindNetwork(t *testing.T) {
	m := buildSmall(t, 9)
	n := m.NetworkAt(m.NetworkCount() / 2)
	got, ok := m.FindNetwork(n.Host(0))
	if !ok || got.Base != n.Base {
		t.Fatalf("FindNetwork(%v) = %v, %v", n.Host(0), got, ok)
	}
	if _, ok := m.FindNetwork(netaddr.MustParseAddr("10.0.0.1")); ok {
		t.Error("found a network in RFC1918 space")
	}
}

func TestSampleAddrActive(t *testing.T) {
	m := buildSmall(t, 11)
	rng := stats.NewRNG(12)
	for i := 0; i < 2000; i++ {
		a := m.SampleAddr(rng)
		n, ok := m.FindNetwork(a)
		if !ok {
			t.Fatalf("sampled address %v not in any network", a)
		}
		if !n.Contains(a) {
			t.Fatalf("sampled address %v outside active host range of %v", a, n.Block())
		}
	}
}

func TestSampleAddrSet(t *testing.T) {
	m := buildSmall(t, 13)
	rng := stats.NewRNG(14)
	s := m.SampleAddrSet(5000, rng)
	if s.Len() != 5000 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Clustered structure: far fewer /16 blocks than a uniform draw
	// would produce.
	if c := s.BlockCount(16); c > 2500 {
		t.Errorf("sample spans %d /16s; expected clustering", c)
	}
}

func TestSampleClusteredVsNaive(t *testing.T) {
	// The heart of Figure 2: the model's empirical population must be
	// denser (fewer blocks) than the naive uniform-over-/8s draw.
	m := buildSmall(t, 15)
	rng := stats.NewRNG(16)
	size := 4000
	emp := m.SampleAddrSet(size, rng)
	naive := NaiveSample(size, rng)
	if naive.Len() != size {
		t.Fatalf("naive size = %d", naive.Len())
	}
	for _, n := range []int{16, 20, 24} {
		if emp.BlockCount(n) >= naive.BlockCount(n) {
			t.Errorf("empirical not denser than naive at /%d: %d >= %d",
				n, emp.BlockCount(n), naive.BlockCount(n))
		}
	}
}

func TestNaiveSampleOnlyPopulated(t *testing.T) {
	rng := stats.NewRNG(17)
	s := NaiveSample(2000, rng)
	bad := 0
	s.Each(func(a netaddr.Addr) bool {
		if !populated(a) || netaddr.IsReserved(a) {
			bad++
		}
		return true
	})
	if bad > 0 {
		t.Fatalf("%d naive-sample addresses outside populated space", bad)
	}
}

func TestUncleanlinessClusters(t *testing.T) {
	// /24s inside the same /16 must have correlated uncleanliness:
	// the between-/16 variance should dominate a shuffled baseline.
	m := buildSmall(t, 19)
	by16 := make(map[netaddr.Addr][]float64)
	for i := 0; i < m.NetworkCount(); i++ {
		n := m.NetworkAt(i)
		by16[n.Base.Mask(16)] = append(by16[n.Base.Mask(16)], n.Unclean)
	}
	var withinVar, total, groups float64
	var all []float64
	for _, vals := range by16 {
		if len(vals) < 2 {
			continue
		}
		withinVar += varOf(vals)
		groups++
		all = append(all, vals...)
	}
	if groups == 0 {
		t.Skip("no multi-/24 /16s generated")
	}
	total = varOf(all)
	if withinVar/groups >= total {
		t.Errorf("within-/16 variance %.4f not below overall %.4f; uncleanliness not clustered",
			withinVar/groups, total)
	}
}

func varOf(vals []float64) float64 {
	m := stats.Mean(vals)
	ss := 0.0
	for _, v := range vals {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(vals))
}

func TestProfileString(t *testing.T) {
	if Residential.String() != "residential" || Datacenter.String() != "datacenter" {
		t.Error("profile names wrong")
	}
	if Profile(99).String() != "unknown" {
		t.Error("out-of-range profile name")
	}
}

func TestTotalHostsPositive(t *testing.T) {
	m := buildSmall(t, 21)
	if m.TotalHosts() < m.NetworkCount() {
		t.Fatalf("TotalHosts %d < NetworkCount %d", m.TotalHosts(), m.NetworkCount())
	}
}

// referenceSampleAddrSet is the sampler SampleAddrSet replaced: SampleAddr
// draws, with a map dropping repeats. SampleAddr searches the cumulative
// weights with sort.SearchFloat64s.
func referenceSampleAddrSet(m *Model, size int, rng *stats.RNG) ipset.Set {
	b := ipset.NewBuilder(size)
	seen := make(map[netaddr.Addr]struct{}, size)
	for len(seen) < size {
		a := m.SampleAddr(rng)
		if _, dup := seen[a]; !dup {
			seen[a] = struct{}{}
			b.Add(a)
		}
	}
	return b.Build()
}

func TestSampleAddrSetMatchesReference(t *testing.T) {
	for _, networks := range []int{300, 3000, 12000} {
		cfg := smallConfig()
		cfg.TargetNetworks = networks
		m, err := New(cfg, stats.NewRNG(uint64(networks)))
		if err != nil {
			t.Fatal(err)
		}
		size := m.TotalHosts() / 2
		for _, seed := range []uint64{1, 2, 3} {
			gotRNG, wantRNG := stats.NewRNG(seed), stats.NewRNG(seed)
			got := m.SampleAddrSet(size, gotRNG)
			want := referenceSampleAddrSet(m, size, wantRNG)
			if got.Len() != size || !got.Equal(want) {
				t.Fatalf("%d networks, seed %d: sets differ (%d vs %d addresses)", m.NetworkCount(), seed, got.Len(), want.Len())
			}
			if a, b := gotRNG.Uint64(), wantRNG.Uint64(); a != b {
				t.Fatalf("%d networks, seed %d: RNG streams diverged", m.NetworkCount(), seed)
			}
		}
	}
}

// splitmixGamma is SplitMix64's state increment: a generator seeded
// with s is in state s + t·splitmixGamma after t outputs.
const splitmixGamma = 0x9e3779b97f4a7c15

// rejectingSeed returns the seed under which draw j's Intn output is 0.
// SplitMix64's output function is a bijection that maps state 0 to 0,
// and draw j's Intn output is output 2j+1, so the generator must reach
// state 0 there. Lemire's method rejects 0 for every n that is not a
// power of two.
func rejectingSeed(j int) uint64 {
	return -uint64(2*j+2) * splitmixGamma
}

// TestSampleAddrSetRejection places a draw whose Intn rejects its output
// at the chunk and round boundaries of the parallel draw, and holds the
// set and the RNG continuation to the serial reference at one and at
// four workers.
func TestSampleAddrSetRejection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TargetNetworks = 30000
	m, err := New(cfg, stats.NewRNG(26))
	if err != nil {
		t.Fatal(err)
	}
	round := drawRoundChunks * drawChunk
	size := m.TotalHosts() / 2
	if size <= round {
		t.Fatalf("sample of %d does not fill a round of %d draws", size, round)
	}
	// Every rejecting draw's Float64 output is the one before state 0,
	// so it always picks the same network: draw 0's under rejectingSeed(0).
	u := stats.NewRNG(rejectingSeed(0)).Float64() * m.totalMass
	hosts := m.nets[sort.SearchFloat64s(m.cum, u)].Hosts
	if hosts&(hosts-1) == 0 {
		t.Fatalf("the rejecting draw's network has %d hosts, a power of two", hosts)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		name string
		draw int
	}{
		{"first draw", 0},
		{"chunk's first draw", 3 * drawChunk},
		{"mid-chunk", 5*drawChunk + 1234},
		{"chunk's last draw", 7*drawChunk - 1},
		{"round's last draw", round - 1},
		{"next round's first draw", round},
	} {
		seed := rejectingSeed(c.draw)
		probe := stats.NewRNG(seed)
		probe.Advance(uint64(2*c.draw + 1))
		if _, ok := probe.IntnOnce(hosts); ok {
			t.Fatalf("%s: draw %d does not reject", c.name, c.draw)
		}
		wantRNG := stats.NewRNG(seed)
		want := referenceSampleAddrSet(m, size, wantRNG)
		wantNext := wantRNG.Uint64()
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			gotRNG := stats.NewRNG(seed)
			got := m.SampleAddrSet(size, gotRNG)
			if got.Len() != size || !got.Equal(want) {
				t.Fatalf("%s, GOMAXPROCS %d: sets differ (%d vs %d addresses)", c.name, procs, got.Len(), want.Len())
			}
			if gotRNG.Uint64() != wantNext {
				t.Fatalf("%s, GOMAXPROCS %d: RNG streams diverged", c.name, procs)
			}
		}
	}
}

// checkGuide compares the guided search with sort.SearchFloat64s at u.
func checkGuide(t *testing.T, label string, g guide, u float64) {
	t.Helper()
	if got, want := g.search(u), sort.SearchFloat64s(g.cum, u); got != want {
		t.Fatalf("%s: search(%v) = %d, sort.SearchFloat64s = %d", label, u, got, want)
	}
}

func TestGuideMatchesSearchFloat64s(t *testing.T) {
	type weights struct {
		name  string
		cum   []float64
		total float64
	}
	m := buildSmall(t, 23)
	models := []weights{{"model", m.cum, m.totalMass}}
	// Synthetic weight profiles that stress the bucket arithmetic.
	for _, p := range []struct {
		name   string
		weight func(i int) float64
	}{
		{"equal", func(int) float64 { return 1 }},
		{"geometric", func(i int) float64 { return math.Pow(1.05, float64(i%400)) }},
		{"one-giant", func(i int) float64 {
			if i == 17 {
				return 1e9
			}
			return 0.5
		}},
		{"tiny-and-huge", func(i int) float64 {
			if i%7 == 0 {
				return 762
			}
			return 1e-6
		}},
	} {
		cum := make([]float64, 1000)
		total := 0.0
		for i := range cum {
			total += p.weight(i)
			cum[i] = total
		}
		models = append(models, weights{p.name, cum, total})
	}
	rng := stats.NewRNG(24)
	for _, c := range models {
		g := newGuide(c.cum, c.total)
		draws := 1_000_000
		if c.name != "model" {
			draws = 100_000
		}
		for i := 0; i < draws; i++ {
			checkGuide(t, c.name, g, rng.Float64()*c.total)
		}
		// Every bucket edge and every cumulative weight, with both
		// neighbouring floats.
		var points []float64
		for j := range g.start {
			points = append(points, float64(j)/g.scale)
		}
		points = append(points, c.cum...)
		for _, p := range points {
			for _, u := range []float64{math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1))} {
				if u >= 0 && u <= c.total {
					checkGuide(t, c.name, g, u)
				}
			}
		}
		checkGuide(t, c.name, g, 0)
		checkGuide(t, c.name, g, math.Nextafter(c.total, 0))
		checkGuide(t, c.name, g, c.total)
	}
}

var sampleSink ipset.Set

// BenchmarkSampleAddrSet draws half the active population, against the
// reference sampler.
func BenchmarkSampleAddrSet(b *testing.B) {
	cfg := DefaultConfig()
	cfg.TargetNetworks = 20000
	m, err := New(cfg, stats.NewRNG(25))
	if err != nil {
		b.Fatal(err)
	}
	size := m.TotalHosts() / 2
	for _, impl := range []struct {
		name   string
		sample func(int, *stats.RNG) ipset.Set
	}{
		{"guided", m.SampleAddrSet},
		{"reference", func(size int, rng *stats.RNG) ipset.Set { return referenceSampleAddrSet(m, size, rng) }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sampleSink = impl.sample(size, stats.NewRNG(uint64(i)))
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "addrs/s")
		})
	}
}

// populated reports whether a's /8 was allocated in the 2006 registry.
func populated(a netaddr.Addr) bool {
	return slices.Contains(netaddr.PopulatedSlash8s(), byte(a>>24))
}
