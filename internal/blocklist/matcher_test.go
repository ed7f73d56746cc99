package blocklist

import (
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

// randomTrie builds a rule set spanning the whole prefix spectrum,
// including short (< /16) fan-out rules and deeply nested chains.
func randomTrie(rng *stats.RNG, n int) *Trie {
	tr := &Trie{}
	for i := 0; i < n; i++ {
		bits := 8 + rng.Intn(25) // /8 .. /32
		tr.Insert(netaddr.Addr(rng.Uint32()).Block(bits), "r")
	}
	return tr
}

// lastAddr returns the final address in b.
func lastAddr(b netaddr.Block) netaddr.Addr { return b.Base() + netaddr.Addr(b.Size()-1) }

// probeAddrs yields addresses that stress a rule set: every rule's
// boundary addresses plus random ones.
func probeAddrs(tr *Trie, rng *stats.RNG, extra int) []netaddr.Addr {
	var addrs []netaddr.Addr
	tr.Walk(func(e Entry) bool {
		b := e.Block
		addrs = append(addrs, b.Base(), lastAddr(b), b.Base()-1, lastAddr(b)+1)
		return true
	})
	for i := 0; i < extra; i++ {
		addrs = append(addrs, netaddr.Addr(rng.Uint32()))
	}
	return addrs
}

func TestMatcherMatchesTrie(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99} {
		rng := stats.NewRNG(seed)
		tr := randomTrie(rng, 300)
		m := Compile(tr)
		for _, a := range probeAddrs(tr, rng, 5000) {
			we, wok := tr.Lookup(a)
			ge, gok := m.Lookup(a)
			if wok != gok {
				t.Fatalf("seed %d: Lookup(%v) matched=%v, trie says %v", seed, a, gok, wok)
			}
			if wok && ge.Block != we.Block {
				t.Fatalf("seed %d: Lookup(%v) = %v, trie says %v", seed, a, ge.Block, we.Block)
			}
			if m.Blocks(a) != tr.Blocks(a) {
				t.Fatalf("seed %d: Blocks(%v) disagrees with trie", seed, a)
			}
		}
	}
}

func TestMatcherLongestMatchWins(t *testing.T) {
	tr := &Trie{}
	tr.Insert(netaddr.MustParseBlock("10.0.0.0/8"), "eight")
	tr.Insert(netaddr.MustParseBlock("10.1.0.0/16"), "sixteen")
	tr.Insert(netaddr.MustParseBlock("10.1.2.0/24"), "twentyfour")
	tr.Insert(netaddr.MustParseBlock("10.1.2.3/32"), "host")
	m := Compile(tr)
	for addr, want := range map[string]string{
		"10.9.9.9":   "eight",
		"10.1.9.9":   "sixteen",
		"10.1.2.9":   "twentyfour",
		"10.1.2.3":   "host",
		"10.1.3.1":   "sixteen",
		"10.255.0.1": "eight",
	} {
		e, ok := m.Lookup(netaddr.MustParseAddr(addr))
		if !ok || e.Reason != want {
			t.Errorf("Lookup(%s) = %q (ok=%v), want %q", addr, e.Reason, ok, want)
		}
	}
	if _, ok := m.Lookup(netaddr.MustParseAddr("11.0.0.1")); ok {
		t.Error("Lookup outside all rules matched")
	}
}

func TestMatcherEmpty(t *testing.T) {
	m := Compile(&Trie{})
	if m.Blocks(netaddr.MustParseAddr("1.2.3.4")) {
		t.Error("empty matcher blocked an address")
	}
	if _, ok := m.Lookup(0); ok {
		t.Error("empty matcher matched address 0")
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}

func TestMatcherShortPrefixCount(t *testing.T) {
	tr := &Trie{}
	tr.Insert(netaddr.MustParseBlock("10.0.0.0/8"), "a")
	tr.Insert(netaddr.MustParseBlock("172.16.0.0/12"), "b")
	tr.Insert(netaddr.MustParseBlock("192.168.0.0/16"), "c")
	tr.Insert(netaddr.MustParseBlock("192.168.1.0/24"), "d")
	before := compileShortPrefix.Value()
	Compile(tr)
	if got := compileShortPrefix.Value() - before; got != 2 {
		t.Errorf("unclean_blocklist_compile_short_prefix_total rose by %d, want 2", got)
	}
}

func TestMatcherLookupNoAlloc(t *testing.T) {
	rng := stats.NewRNG(7)
	m := Compile(randomTrie(rng, 1000))
	addr := netaddr.Addr(rng.Uint32())
	if avg := testing.AllocsPerRun(100, func() {
		m.Lookup(addr)
		m.Blocks(addr)
		addr += 7919
	}); avg != 0 {
		t.Errorf("Lookup allocates %.1f per run, want 0", avg)
	}
}

func TestCompileSetMatchesTries(t *testing.T) {
	rng := stats.NewRNG(42)
	random := make([]*Trie, 5)
	for i := range random {
		random[i] = randomTrie(rng, 120)
	}
	// One block in two lists, and a /16 ⊃ /24 ⊃ /32 chain whose levels
	// sit in different lists, so a rule's mask must carry the lists of
	// the rules that contain it.
	hand := []*Trie{{}, {}, {}}
	for _, r := range []struct {
		list  int
		block string
	}{
		{0, "192.168.7.0/24"}, {2, "192.168.7.0/24"},
		{0, "10.1.0.0/16"}, {1, "10.1.2.0/24"}, {2, "10.1.2.3/32"},
	} {
		hand[r.list].Insert(netaddr.MustParseBlock(r.block), "hand")
	}
	for _, lists := range [][]*Trie{random, hand} {
		ms, err := CompileSet(lists)
		if err != nil {
			t.Fatal(err)
		}
		if ms.Lists() != len(lists) {
			t.Fatalf("Lists = %d, want %d", ms.Lists(), len(lists))
		}
		for _, tr := range lists {
			for _, a := range probeAddrs(tr, rng, 0) {
				mask := ms.Mask(a)
				for i, l := range lists {
					if got, want := mask>>uint(i)&1 == 1, l.Blocks(a); got != want {
						t.Fatalf("Mask(%v) bit %d = %v, trie says %v", a, i, got, want)
					}
				}
			}
		}
		for i := 0; i < 5000; i++ {
			a := netaddr.Addr(rng.Uint32())
			mask := ms.Mask(a)
			for j, l := range lists {
				if got, want := mask>>uint(j)&1 == 1, l.Blocks(a); got != want {
					t.Fatalf("Mask(%v) bit %d = %v, trie says %v", a, j, got, want)
				}
			}
		}
	}
}

func TestCompileSetTooManyLists(t *testing.T) {
	lists := make([]*Trie, 33)
	for i := range lists {
		lists[i] = &Trie{}
	}
	if _, err := CompileSet(lists); err == nil {
		t.Fatal("CompileSet accepted 33 lists")
	}
}

func TestSweepSetMatchesFromSet(t *testing.T) {
	rng := stats.NewRNG(11)
	b := ipset.NewBuilder(0)
	for i := 0; i < 400; i++ {
		b.Add(netaddr.Addr(rng.Uint32()))
	}
	seed := b.Build()
	const lo, hi = 24, 32
	ms, err := SweepSet(seed, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	tries := make([]*Trie, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		tries = append(tries, FromSet(seed, n, "sweep"))
	}
	for i := 0; i < 20000; i++ {
		a := netaddr.Addr(rng.Uint32())
		mask := ms.Mask(a)
		for j, tr := range tries {
			if got, want := mask>>uint(j)&1 == 1, tr.Blocks(a); got != want {
				t.Fatalf("Mask(%v) bit /%d = %v, trie says %v", a, lo+j, got, want)
			}
		}
	}
	// Every seed address must be in every C_n of its own sweep.
	want := uint32(1)<<(hi-lo+1) - 1
	seed.Each(func(a netaddr.Addr) bool {
		if ms.Mask(a) != want {
			t.Fatalf("Mask(%v) = %b for a seed address, want %b", a, ms.Mask(a), want)
		}
		return true
	})
}

// TestSweepSetAllocs holds SweepSet at Table 3's shape to a few
// allocations per compile: the seed's blocks go straight into the table,
// with no trie per prefix length.
func TestSweepSetAllocs(t *testing.T) {
	seed := randomSeed(stats.NewRNG(16), 186)
	if avg := testing.AllocsPerRun(10, func() {
		if _, err := SweepSet(seed, 24, 32); err != nil {
			t.Fatal(err)
		}
	}); avg > 1000 {
		t.Errorf("SweepSet allocates %.0f times per compile, want at most 1000", avg)
	}
}

func TestSweepSetRangeValidation(t *testing.T) {
	var empty ipset.Set
	for _, r := range [][2]int{{-1, 8}, {8, 33}, {20, 10}} {
		if _, err := SweepSet(empty, r[0], r[1]); err == nil {
			t.Errorf("SweepSet(%d, %d) accepted invalid range", r[0], r[1])
		}
	}
}

// FuzzMatcherLookup is the differential fuzz harness: a seeded random
// rule set is compiled and the matcher must agree with the reference
// trie on the fuzzed address and its rule-boundary neighbours. The rules
// are then dealt over one to five lists, some into two, and a set of
// those lists must agree with their tries on every rule's boundary
// addresses; so must a sweep over the rules' bases with FromSet's tries.
func FuzzMatcherLookup(f *testing.F) {
	f.Add(uint64(1), uint32(0), uint16(50))
	f.Add(uint64(2), uint32(0xc0a80101), uint16(1))
	f.Add(uint64(3), uint32(0xffffffff), uint16(300))
	f.Add(uint64(99), uint32(0x0a000001), uint16(31))
	f.Fuzz(func(t *testing.T, seed uint64, addr uint32, nRules uint16) {
		rng := stats.NewRNG(seed)
		tr := randomTrie(rng, int(nRules%512))
		fuzzed := []netaddr.Addr{
			netaddr.Addr(addr), netaddr.Addr(addr) - 1, netaddr.Addr(addr) + 1,
			netaddr.Addr(addr ^ 0x80000000), netaddr.Addr(rng.Uint32()),
		}
		m := Compile(tr)
		ms, err := CompileSet([]*Trie{tr})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range fuzzed {
			we, wok := tr.Lookup(a)
			ge, gok := m.Lookup(a)
			if wok != gok || (wok && ge.Block != we.Block) {
				t.Fatalf("matcher Lookup(%v) = (%v, %v), trie says (%v, %v)", a, ge.Block, gok, we.Block, wok)
			}
			if got, want := ms.Mask(a) == 1, tr.Blocks(a); got != want {
				t.Fatalf("set Mask(%v) = %v, trie says %v", a, got, want)
			}
		}

		lists := make([]*Trie, 1+rng.Intn(5))
		for i := range lists {
			lists[i] = &Trie{}
		}
		bases := ipset.NewBuilder(tr.Len())
		tr.Walk(func(e Entry) bool {
			lists[rng.Intn(len(lists))].Insert(e.Block, e.Reason)
			if rng.Intn(4) == 0 {
				lists[rng.Intn(len(lists))].Insert(e.Block, e.Reason)
			}
			bases.Add(e.Block.Base())
			return true
		})
		seeds := bases.Build()
		lo := rng.Intn(33)
		hi := lo + rng.Intn(min(32, 33-lo))
		sweep := make([]*Trie, 0, hi-lo+1)
		for n := lo; n <= hi; n++ {
			sweep = append(sweep, FromSet(seeds, n, "sweep"))
		}
		dealt, err := CompileSet(lists)
		if err != nil {
			t.Fatal(err)
		}
		swept, err := SweepSet(seeds, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		probes := append(probeAddrs(tr, rng, 0), fuzzed...)
		for _, c := range []struct {
			name  string
			set   *MatcherSet
			tries []*Trie
		}{{"dealt", dealt, lists}, {"sweep", swept, sweep}} {
			for _, a := range probes {
				mask := c.set.Mask(a)
				for i, l := range c.tries {
					if got, want := mask>>uint(i)&1 == 1, l.Blocks(a); got != want {
						t.Fatalf("%s set: Mask(%v) bit %d = %v, trie says %v", c.name, a, i, got, want)
					}
				}
			}
		}
	})
}
