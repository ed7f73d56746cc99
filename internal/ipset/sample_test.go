package ipset

import (
	"runtime"
	"slices"
	"testing"

	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

func randomSet(rng *stats.RNG, n int) Set {
	b := NewBuilder(n)
	for b.Len() < n {
		b.Add(netaddr.Addr(rng.Uint32()))
	}
	s := b.Build()
	for s.Len() < n { // extremely unlikely collision top-up
		b.AddSet(s)
		b.Add(netaddr.Addr(rng.Uint32()))
		s = b.Build()
	}
	return s
}

func TestSampleBasics(t *testing.T) {
	rng := stats.NewRNG(100)
	s := randomSet(rng, 5000)
	for _, k := range []int{0, 1, 50, 2500, 4800, 5000} {
		sub := s.Sample(k, rng)
		if sub.Len() != k {
			t.Fatalf("Sample(%d).Len = %d", k, sub.Len())
		}
		missing := sub.Difference(s)
		if !missing.IsEmpty() {
			t.Fatalf("Sample(%d) contains %d non-members", k, missing.Len())
		}
	}
}

func TestSamplePanicsOutOfRange(t *testing.T) {
	rng := stats.NewRNG(1)
	s := MustParse("1.2.3.4")
	for _, k := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sample(%d) did not panic", k)
				}
			}()
			s.Sample(k, rng)
		}()
	}
}

func TestSampleUniform(t *testing.T) {
	// Each member should appear in a k-of-n sample with probability k/n.
	rng := stats.NewRNG(101)
	s := FromUint32s([]uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	counts := make(map[uint32]int)
	const draws = 20000
	for i := 0; i < draws; i++ {
		s.Sample(3, rng).Each(func(a netaddr.Addr) bool {
			counts[uint32(a)]++
			return true
		})
	}
	want := draws * 3 / 10
	for u, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("member %d drawn %d times, want ~%d", u, c, want)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	s := randomSet(stats.NewRNG(7), 1000)
	a := s.Sample(100, stats.NewRNG(55))
	b := s.Sample(100, stats.NewRNG(55))
	if !a.Equal(b) {
		t.Fatal("sampling not deterministic under a fixed seed")
	}
}

func TestSampleBlocks(t *testing.T) {
	rng := stats.NewRNG(102)
	s := randomSet(rng, 3000)
	dist := s.SampleBlocks(20, 500, 16, 24, rng)
	if len(dist) != 9 {
		t.Fatalf("rows = %d, want 9", len(dist))
	}
	for i, row := range dist {
		if len(row) != 20 {
			t.Fatalf("row %d has %d draws", i, len(row))
		}
		for _, v := range row {
			if v < 1 || v > 500 {
				t.Fatalf("block count %v out of [1,500]", v)
			}
		}
	}
	// Counts must be non-decreasing with prefix length draw-by-draw.
	for draw := 0; draw < 20; draw++ {
		for i := 1; i < len(dist); i++ {
			if dist[i][draw] < dist[i-1][draw] {
				t.Fatalf("draw %d: count decreased from /%d to /%d", draw, 16+i-1, 16+i)
			}
		}
	}
}

func TestSampleBlocksDeterministicUnderConcurrency(t *testing.T) {
	s := randomSet(stats.NewRNG(200), 4000)
	run := func() [][]float64 {
		return s.SampleBlocks(64, 800, 16, 24, stats.NewRNG(31337))
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("draw distribution differs at [%d][%d]", i, j)
			}
		}
	}
	target := s.Sample(500, stats.NewRNG(1))
	runI := func() [][]float64 {
		return s.SampleIntersections(target, 64, 800, 16, 24, stats.NewRNG(31337))
	}
	x, y := runI(), runI()
	for i := range x {
		for j := range x[i] {
			if x[i][j] != y[i][j] {
				t.Fatalf("intersection distribution differs at [%d][%d]", i, j)
			}
		}
	}
}

// referenceSample is the original map/permutation implementation of
// Set.Sample, kept as the determinism oracle: the arena kernels must
// consume the identical rng stream and return the identical set. The
// Floyd branch iterates a Go map, whose order is randomized — the sort in
// buildSorted is what pins its output, and the tests below rely on that.
func referenceSample(s Set, k int, rng *stats.RNG) Set {
	n := s.Len()
	if k == 0 {
		return Set{}
	}
	if k == n {
		return s
	}
	out := make([]uint32, 0, k)
	if k <= n/16 {
		chosen := make(map[int]struct{}, k)
		for i := n - k; i < n; i++ {
			j := rng.Intn(i + 1)
			if _, dup := chosen[j]; dup {
				j = i
			}
			chosen[j] = struct{}{}
		}
		for idx := range chosen {
			out = append(out, uint32(s.At(idx)))
		}
	} else {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + rng.Intn(n-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		for _, i := range idx[:k] {
			out = append(out, uint32(s.At(i)))
		}
	}
	return FromUint32s(out)
}

// TestSampleMatchesReference pins both sampler branches against the
// original implementation: identical sets AND identical rng consumption
// (checked by comparing the next parent draw).
func TestSampleMatchesReference(t *testing.T) {
	s := randomSet(stats.NewRNG(900), 4000)
	cases := []struct {
		name string
		k    int
	}{
		{"floyd-tiny", 5},
		{"floyd", 200},        // 200 <= 4000/16 -> Floyd branch
		{"floyd-edge", 250},   // boundary: k == n/16 stays on Floyd
		{"fisher-yates", 251}, // first k past the boundary
		{"fisher-yates-mid", 2000},
		{"fisher-yates-big", 3999},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ra, rb := stats.NewRNG(4242), stats.NewRNG(4242)
			got := s.Sample(tc.k, ra)
			want := referenceSample(s, tc.k, rb)
			if !got.Equal(want) {
				t.Fatalf("k=%d: sample differs from reference implementation", tc.k)
			}
			if ra.Uint64() != rb.Uint64() {
				t.Fatalf("k=%d: rng consumption differs from reference implementation", tc.k)
			}
		})
	}
}

// TestSampleDeterministicAcrossGOMAXPROCS locks in the concurrency
// contract: sampling results — including the concurrent draw loops — are
// identical at GOMAXPROCS=1, 2, 4 and at full parallelism, on both the
// Floyd and Fisher-Yates branches.
func TestSampleDeterministicAcrossGOMAXPROCS(t *testing.T) {
	s := randomSet(stats.NewRNG(901), 4000)
	target := s.Sample(500, stats.NewRNG(2))
	type snapshot struct {
		floyd, fy   Set
		blocks      [][]float64
		intersected [][]float64
	}
	capture := func(size int) snapshot {
		return snapshot{
			floyd:       s.Sample(100, stats.NewRNG(11).Fork(3)),  // 100 <= n/16
			fy:          s.Sample(1500, stats.NewRNG(11).Fork(3)), // 1500 > n/16
			blocks:      s.SampleBlocks(64, size, 16, 28, stats.NewRNG(12)),
			intersected: s.SampleIntersections(target, 64, size, 16, 28, stats.NewRNG(13)),
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, size := range []int{200, 600} { // the Floyd and Fisher-Yates kernels
		var base snapshot
		for i, procs := range []int{1, 2, 4, prev} {
			runtime.GOMAXPROCS(procs)
			got := capture(size)
			if i == 0 {
				base = got
				continue
			}
			if !got.floyd.Equal(base.floyd) {
				t.Fatalf("GOMAXPROCS=%d: Floyd-branch sample differs", procs)
			}
			if !got.fy.Equal(base.fy) {
				t.Fatalf("GOMAXPROCS=%d: Fisher-Yates-branch sample differs", procs)
			}
			for r := range base.blocks {
				for c := range base.blocks[r] {
					if got.blocks[r][c] != base.blocks[r][c] {
						t.Fatalf("GOMAXPROCS=%d, size %d: SampleBlocks differs at [%d][%d]", procs, size, r, c)
					}
					if got.intersected[r][c] != base.intersected[r][c] {
						t.Fatalf("GOMAXPROCS=%d, size %d: SampleIntersections differs at [%d][%d]", procs, size, r, c)
					}
				}
			}
		}
	}
}

func TestSampleIntersections(t *testing.T) {
	rng := stats.NewRNG(103)
	s := randomSet(rng, 3000)
	target := s.Sample(300, rng) // target drawn from same population
	dist := s.SampleIntersections(target, 15, 300, 16, 20, rng)
	if len(dist) != 5 {
		t.Fatalf("rows = %d, want 5", len(dist))
	}
	for _, row := range dist {
		if len(row) != 15 {
			t.Fatalf("draws = %d, want 15", len(row))
		}
		for _, v := range row {
			if v < 0 || v > 300 {
				t.Fatalf("intersection %v out of range", v)
			}
		}
	}
}

// sampleSorted is the hash-and-sort sampler the draw kernels ran before
// the rank bitmap, kept as the reference drawRanks is held to. It hashes
// each pick (a map as Floyd's chosen set, another as the sparse
// Fisher-Yates displacement map), reads addrs[j] in draw order and sorts
// the sample. addrs must be sorted and duplicate-free. It touches no
// arena state. When k == len(addrs) it returns addrs itself and consumes
// no randomness.
func (a *sampleArena) sampleSorted(addrs []uint32, k int, rng *stats.RNG) []uint32 {
	n := len(addrs)
	if k < 0 || k > n {
		panic("ipset: sample size out of range")
	}
	if k == 0 {
		return nil
	}
	if k == n {
		return addrs
	}
	out := make([]uint32, 0, k)
	if k <= n/16 {
		chosen := make(map[int]bool, k)
		for i := n - k; i < n; i++ {
			j := rng.Intn(i + 1)
			if chosen[j] {
				j = i
			}
			chosen[j] = true
			out = append(out, addrs[j])
		}
	} else {
		moved := make(map[int]int, k)
		at := func(i int) int {
			if v, ok := moved[i]; ok {
				return v
			}
			return i
		}
		for i := 0; i < k; i++ {
			j := i + rng.Intn(n-i)
			vi, vj := at(i), at(j)
			moved[j] = vi
			out = append(out, addrs[vj])
		}
	}
	slices.Sort(out)
	return out
}

// drawn returns addrs at the ranks drawRanks visits, in visit order.
func drawn(a *sampleArena, addrs []uint32, k int, rng *stats.RNG) []uint32 {
	var out []uint32
	a.drawRanks(len(addrs), k, rng, func(rank int) { out = append(out, addrs[rank]) })
	return out
}

// checkDrawn holds one drawRanks call to the reference sampler: the same
// members in the same order, the same generator consumption, and both
// bitmap levels all zero afterwards.
func checkDrawn(t *testing.T, a *sampleArena, addrs []uint32, k int, seed uint64) {
	t.Helper()
	rg, rr := stats.NewRNG(seed), stats.NewRNG(seed)
	got, want := drawn(a, addrs, k, rg), a.sampleSorted(addrs, k, rr)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d k=%d: drew other members than the reference", len(addrs), k)
	}
	if rg.Uint64() != rr.Uint64() {
		t.Fatalf("n=%d k=%d: generator consumption differs from the reference", len(addrs), k)
	}
	for w, bits := range a.ranks {
		if bits != 0 {
			t.Fatalf("n=%d k=%d: rank word %d left at %#x", len(addrs), k, w, bits)
		}
	}
	for w, bits := range a.summary {
		if bits != 0 {
			t.Fatalf("n=%d k=%d: summary word %d left at %#x", len(addrs), k, w, bits)
		}
	}
}

// TestDrawRanksMatchesReference pins both sampler branches, their
// boundary and the k == 0 and k == n shortcuts against the reference, at
// populations on either side of a bitmap word and of a summary word.
func TestDrawRanksMatchesReference(t *testing.T) {
	rng := stats.NewRNG(902)
	a := new(sampleArena)
	for _, n := range []int{1, 63, 64, 65, 4095, 4096, 4097, 100000} {
		addrs := randomSet(rng, n).raw()
		for _, k := range []int{0, 1, n / 16, n/16 + 1, n - 1, n} {
			if k <= n {
				checkDrawn(t, a, addrs, k, rng.Uint64())
			}
		}
	}
}

// TestDrawRanksLeavesArenaClear alternates large and small draws on one
// arena. A walk that left a bit behind would surface as a stale member
// in a later, smaller draw.
func TestDrawRanksLeavesArenaClear(t *testing.T) {
	rng := stats.NewRNG(903)
	addrs := randomSet(rng, 100000).raw()
	a := new(sampleArena)
	for _, c := range [][2]int{
		{100000, 6000}, {65, 3}, {100000, 50000}, {64, 40},
		{4097, 256}, {100000, 1}, {63, 62}, {100000, 99999}, {1, 1}, {4096, 300},
	} {
		checkDrawn(t, a, addrs[:c[0]], c[1], rng.Uint64())
	}
}

// TestDrawKernelsCheckSizeOnCaller: an out-of-range draw size or a
// negative draw count panics on the caller's goroutine, before any draw
// runs on a pool helper, where a panic would kill the process.
func TestDrawKernelsCheckSizeOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := randomSet(stats.NewRNG(904), 500)
	target := s.Sample(50, stats.NewRNG(905))
	for _, c := range []struct{ draws, size int }{{1000, s.Len() + 1}, {1000, -1}, {-1, 10}} {
		kernels := map[string]func(){
			"SampleBlocks": func() { s.SampleBlocks(c.draws, c.size, 16, 32, stats.NewRNG(906)) },
			"SampleIntersections": func() {
				s.SampleIntersections(target, c.draws, c.size, 16, 32, stats.NewRNG(906))
			},
		}
		for name, draw := range kernels {
			func() {
				defer func() {
					if r := recover(); r != "ipset: sample size out of range" {
						t.Errorf("%s(%d draws of %d): recovered %v", name, c.draws, c.size, r)
					}
				}()
				draw()
			}()
		}
	}
}
