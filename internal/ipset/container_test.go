package ipset

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

// Shaped fixtures: each generator produces a membership that lands in a
// different container mix, so every differential test below exercises
// array, bitmap, and run containers plus their cross products. Each test
// compares the Set with the sorted-slice reference in ref_test.go.

type setShape struct {
	name string
	gen  func(rng *stats.RNG) []uint32 // any order, duplicates allowed
}

// build returns the shape's Set and its reference membership.
func (sh setShape) build(rng *stats.RNG) (Set, []uint32) {
	raw := sh.gen(rng)
	return FromUint32s(raw), refSorted(raw)
}

func randomAddrs(rng *stats.RNG, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32()
	}
	return out
}

func shapedSets() []setShape {
	return []setShape{
		{"empty", func(rng *stats.RNG) []uint32 { return nil }},
		{"single", func(rng *stats.RNG) []uint32 {
			return []uint32{rng.Uint32()}
		}},
		{"sparse", func(rng *stats.RNG) []uint32 {
			// Scattered across the whole space: short array containers.
			return randomAddrs(rng, 2000)
		}},
		{"clustered", func(rng *stats.RNG) []uint32 {
			// A handful of /16s, each holding a mid-size array.
			out := make([]uint32, 0, 4096)
			for k := 0; k < 8; k++ {
				base := rng.Uint32() &^ 0xffff
				for i := 0; i < 512; i++ {
					out = append(out, base|rng.Uint32()&0xffff)
				}
			}
			return out
		}},
		{"dense", func(rng *stats.RNG) []uint32 {
			// One /16 with ~20k random members: a bitmap container.
			out := make([]uint32, 0, 20000)
			base := rng.Uint32() &^ 0xffff
			for i := 0; i < 20000; i++ {
				out = append(out, base|rng.Uint32()&0xffff)
			}
			return out
		}},
		{"runs", func(rng *stats.RNG) []uint32 {
			// Complete /24s inside a few /16s: run containers.
			out := make([]uint32, 0, 8*256)
			for k := 0; k < 8; k++ {
				base := rng.Uint32() &^ 0xffff
				blk := base | uint32(rng.Intn(256))<<8
				for v := uint32(0); v < 256; v++ {
					out = append(out, blk|v)
				}
			}
			return out
		}},
		{"full16", func(rng *stats.RNG) []uint32 {
			// An entire /16: the extreme run container [0, 0xffff].
			base := rng.Uint32() &^ 0xffff
			out := make([]uint32, 0, 1<<16)
			for v := uint32(0); v < 1<<16; v++ {
				out = append(out, base|v)
			}
			return out
		}},
		{"mixed", func(rng *stats.RNG) []uint32 {
			// Sparse background plus a dense /16 plus complete /24 runs —
			// all three kinds in one set.
			out := randomAddrs(rng, 3000)
			base := rng.Uint32() &^ 0xffff
			for i := 0; i < 15000; i++ {
				out = append(out, base|rng.Uint32()&0xffff)
			}
			blk := (rng.Uint32() &^ 0xffff) | uint32(rng.Intn(256))<<8
			for v := uint32(0); v < 256; v++ {
				out = append(out, blk|v)
			}
			return out
		}},
		{"edges", func(rng *stats.RNG) []uint32 {
			// Address-space boundaries: 0.0.0.0, 255.255.255.255, and word
			// boundaries inside a container.
			return []uint32{
				0, 1, 63, 64, 65, 0xffff, 0x10000,
				0xffffffff, 0xffff0000, 0x7fffffff, 0x80000000,
			}
		}},
	}
}

// shapePair builds two shapes' sets and references, with about half of
// a's members pushed into b so intersections are non-trivial.
func shapePair(rng *stats.RNG, sa, sb setShape) (a, b Set, ar, br []uint32) {
	a, ar = sa.build(rng)
	braw := sb.gen(rng)
	for _, u := range ar {
		if rng.Intn(2) == 0 {
			braw = append(braw, u)
		}
	}
	return a, FromUint32s(braw), ar, refSorted(braw)
}

func addrsOf(s Set) []uint32 {
	out := make([]uint32, 0, s.Len())
	s.Each(func(a netaddr.Addr) bool {
		out = append(out, uint32(a))
		return true
	})
	return out
}

// sameAddrs checks got holds exactly the sorted addresses want: element
// by element through Each, and by Equal against a set built from want.
func sameAddrs(t *testing.T, label string, got Set, want []uint32) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", label, got.Len(), len(want))
	}
	ga := addrsOf(got)
	if len(ga) != len(want) {
		t.Fatalf("%s: Each visited %d addrs, want %d", label, len(ga), len(want))
	}
	for i := range ga {
		if ga[i] != want[i] {
			t.Fatalf("%s: addr %d: got %08x, want %08x", label, i, ga[i], want[i])
		}
	}
	if w := FromUint32s(want); !got.Equal(w) || !w.Equal(got) {
		t.Fatalf("%s: Equal disagrees with element-wise identity", label)
	}
}

// refString is String's rendering of a sorted membership.
func refString(s []uint32) string {
	if len(s) <= 8 {
		parts := make([]string, len(s))
		for i, u := range s {
			parts[i] = netaddr.Addr(u).String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return fmt.Sprintf("{|S|=%d, %s..%s}", len(s), netaddr.Addr(s[0]), netaddr.Addr(s[len(s)-1]))
}

// TestCompressRoundTrip proves building a Set is lossless for every
// shape: its accessors and materialization match the reference, Compress
// returns it unchanged, and a one-member change makes Equal false.
func TestCompressRoundTrip(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(7)
			s, ref := shape.build(rng)
			sameAddrs(t, "build", s, ref)
			sameAddrs(t, "compress", s.Compress(), ref)
			if got := s.raw(); !slices.Equal(got, ref) {
				t.Fatalf("raw: %d addrs differ from the reference's %d", len(got), len(ref))
			}
			for i := 0; i < len(ref); i += 1 + len(ref)/64 {
				if got := s.At(i); uint32(got) != ref[i] {
					t.Fatalf("At(%d): got %v, want %v", i, got, netaddr.Addr(ref[i]))
				}
			}
			if got, want := s.String(), refString(ref); got != want {
				t.Fatalf("String: got %q, want %q", got, want)
			}
			if len(ref) == 0 {
				return
			}
			// Swap one member for a non-member of the same /16 where one
			// exists, so only the container contents differ.
			m := ref[len(ref)/2]
			swap := m
			for d := uint32(1); d < 1<<16; d++ {
				if c := m&^0xffff | (m+d)&0xffff; !refContains(ref, c) {
					swap = c
					break
				}
			}
			if swap == m {
				swap = m ^ 1<<16
			}
			near := refUnion(refDifference(ref, []uint32{m}), []uint32{swap})
			if ns := FromUint32s(near); s.Equal(ns) || ns.Equal(s) {
				t.Fatalf("sets differing in one member (%v for %v) compare equal", netaddr.Addr(swap), netaddr.Addr(m))
			}
		})
	}
}

// TestCompressedContains checks membership for members, non-members, and
// near-miss neighbours of members.
func TestCompressedContains(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(11)
			s, ref := shape.build(rng)
			for _, u := range ref {
				if !s.Contains(netaddr.Addr(u)) {
					t.Fatalf("member %v missing", netaddr.Addr(u))
				}
			}
			for i := 0; i < 5000; i++ {
				u := rng.Uint32()
				if s.Contains(netaddr.Addr(u)) != refContains(ref, u) {
					t.Fatalf("Contains(%v) disagrees", netaddr.Addr(u))
				}
			}
			// Neighbours of members probe container edges.
			for _, u := range ref {
				for _, d := range []uint32{1, 0xffff} {
					if n := u + d; s.Contains(netaddr.Addr(n)) != refContains(ref, n) {
						t.Fatalf("Contains(%v) disagrees near member %v", netaddr.Addr(n), netaddr.Addr(u))
					}
				}
			}
		})
	}
}

// TestCompressedAlgebraDifferential runs Union/Intersect/Difference over
// every ordered pair of shapes and demands element-wise identity with the
// reference's sorted merges.
func TestCompressedAlgebraDifferential(t *testing.T) {
	shapes := shapedSets()
	for _, sa := range shapes {
		for _, sb := range shapes {
			t.Run(sa.name+"_"+sb.name, func(t *testing.T) {
				rng := stats.NewRNG(13)
				a, b, ar, br := shapePair(rng, sa, sb)
				sameAddrs(t, "union", a.Union(b), refUnion(ar, br))
				sameAddrs(t, "intersect", a.Intersect(b), refIntersect(ar, br))
				sameAddrs(t, "difference", a.Difference(b), refDifference(ar, br))
			})
		}
	}
}

// TestCompressedBlockCountsDifferential checks |C_n| and the count vector
// across all prefix lengths for every shape.
func TestCompressedBlockCountsDifferential(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(17)
			s, ref := shape.build(rng)
			counts := s.BlockCounts(0, 32)
			for n := 0; n <= 32; n++ {
				want := refBlockCount(ref, n)
				if got := s.BlockCount(n); got != want {
					t.Fatalf("BlockCount(%d): got %d, want %d", n, got, want)
				}
				if counts[n] != want {
					t.Fatalf("BlockCounts[%d]: got %d, want %d", n, counts[n], want)
				}
			}
		})
	}
}

// TestCompressedBlockIntersectDifferential checks |C_n(A) ∩ C_n(B)| for
// all prefix lengths across shape pairs, from the containers and from
// the draw kernels' one-pass tally.
func TestCompressedBlockIntersectDifferential(t *testing.T) {
	shapes := shapedSets()
	for _, sa := range shapes {
		for _, sb := range shapes {
			t.Run(sa.name+"_"+sb.name, func(t *testing.T) {
				rng := stats.NewRNG(19)
				a, b, ar, br := shapePair(rng, sa, sb)
				for n := 0; n <= 32; n++ {
					want := refBlockIntersectCount(ar, br, n)
					if got := a.BlockIntersectCount(b, n); got != want {
						t.Fatalf("BlockIntersectCount(%d): got %d, want %d", n, got, want)
					}
				}
				checkIntersectTally(t, ar, br)
			})
		}
	}
}

// TestIntersectTallyEdges holds the one-pass tally to the reference on
// the pairs where a neighbour search or a prefix bound could slip: an
// empty side, x ⊆ y, disjoint sets, x = y, the ends of the address
// space, one-member sides, and sets inside one block.
func TestIntersectTallyEdges(t *testing.T) {
	rng := stats.NewRNG(20)
	y := refSorted(randomAddrs(rng, 3000))
	var everyThird, odd, even []uint32
	for i, u := range y {
		if i%3 == 0 {
			everyThird = append(everyThird, u)
		}
		if u&1 == 1 {
			odd = append(odd, u)
		} else {
			even = append(even, u)
		}
	}
	block := make([]uint32, 0, 200) // every member inside 10.1.2.0/24
	for v := uint32(0); v < 256; v += 3 {
		block = append(block, 0x0a010200|v)
	}
	ends := []uint32{0, 0xffffffff}
	pairs := []struct {
		name string
		x, y []uint32
	}{
		{"empty_x", nil, y},
		{"empty_y", y, nil},
		{"empty_both", nil, nil},
		{"subset", everyThird, y},
		{"superset", y, everyThird},
		{"disjoint", odd, even},
		{"equal", y, y},
		{"ends_ends", ends, ends},
		{"zero_ends", []uint32{0}, ends},
		{"max_ends", []uint32{0xffffffff}, ends},
		{"ends_mid", ends, []uint32{0x7fffffff, 0x80000000}},
		{"ends_y", ends, y},
		{"one_one_same", []uint32{0x0a010203}, []uint32{0x0a010203}},
		{"one_one_near", []uint32{0x0a010203}, []uint32{0x0a010204}},
		{"one_one_far", []uint32{0x0a010203}, []uint32{0xc0a80001}},
		{"one_many", []uint32{y[1500]}, y},
		{"many_one", y, []uint32{y[1500] + 1}},
		{"block_block", block, []uint32{0x0a010201, 0x0a0102ff}},
		{"block_y", block, y},
		{"block_self", block, block},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) { checkIntersectTally(t, p.x, p.y) })
	}
}

// checkIntersectTally feeds x through prefixTally.addMeet against y and
// demands refBlockIntersectCount at every n, read over [0, 32] and over
// sub-ranges.
func checkIntersectTally(t *testing.T, x, y []uint32) {
	t.Helper()
	var tally prefixTally
	for _, u := range x {
		tally.addMeet(u, y)
	}
	for _, r := range [][2]int{{0, 32}, {16, 32}, {0, 15}, {8, 24}, {24, 24}, {0, 0}, {32, 32}} {
		lo, hi := r[0], r[1]
		got := make([]int, hi-lo+1)
		tally.counts(lo, hi, got)
		for n := lo; n <= hi; n++ {
			if want := refBlockIntersectCount(x, y, n); got[n-lo] != want {
				t.Fatalf("tally over [%d, %d] at /%d: got %d, want %d", lo, hi, n, got[n-lo], want)
			}
		}
	}
}

// TestCompressedInBlocksDifferential checks the inclusion relation
// a ⊏ C_n(S), as WithinBlocks materializes it, for members, misses, and
// block neighbours across all prefix lengths and every cover shape.
func TestCompressedInBlocksDifferential(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(23)
			s, ref := shape.build(rng)
			probes := make([]uint32, 0, 256)
			for _, u := range ref {
				if len(probes) >= 192 {
					break
				}
				probes = append(probes, u, u+1, u^0x100)
			}
			for i := 0; i < 64; i++ {
				probes = append(probes, rng.Uint32())
			}
			probeSet, probeRef := FromUint32s(probes), refSorted(probes)
			for n := 0; n <= 32; n++ {
				sameAddrs(t, fmt.Sprintf("/%d", n), probeSet.WithinBlocks(s, n), refWithinBlocks(probeRef, ref, n))
			}
		})
	}
}

// TestCompressedSampleIdentical proves a seeded Sample returns exactly
// the subset the draw kernels' sampleSorted draws from the same members,
// and consumes the same generator stream: Sample's rank-select walk and
// sampleSorted make the same draws, which keeps Figs. 2–5 stable.
func TestCompressedSampleIdentical(t *testing.T) {
	a := getArena()
	defer putArena(a)
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(29)
			s, ref := shape.build(rng)
			n := len(ref)
			for _, k := range []int{0, 1, n / 100, n / 16, n / 3, n / 2, n - 1, n} {
				if k < 0 || k > n {
					continue
				}
				// Both draws must consume the same stream: fork one seed.
				seed := rng.Uint64()
				rs, rr := stats.NewRNG(seed), stats.NewRNG(seed)
				got := s.Sample(k, rs)
				sameAddrs(t, fmt.Sprintf("sample k=%d", k), got, a.sampleSorted(ref, k, rr))
				if rs.Uint64() != rr.Uint64() {
					t.Fatalf("k=%d: generator consumption differs from sampleSorted", k)
				}
			}
		})
	}
}

// TestCompressedSampleBlocksIdentical proves the Monte-Carlo draw kernels
// return, draw by draw, the block counts the reference computes on the
// same forked generators.
func TestCompressedSampleBlocksIdentical(t *testing.T) {
	rng := stats.NewRNG(31)
	raw := randomAddrs(rng, 30000)
	s, ref := FromUint32s(raw), refSorted(raw)
	targetRef := refSorted(raw[:5000])
	target := FromUint32s(targetRef)
	seed := rng.Uint64()
	const draws, size, lo, hi = 50, 2000, 8, 24

	a := getArena()
	defer putArena(a)
	gotB := s.SampleBlocks(draws, size, lo, hi, stats.NewRNG(seed))
	gotI := s.SampleIntersections(target, draws, size, lo, hi, stats.NewRNG(seed))
	parent := stats.NewRNG(seed)
	for d := 0; d < draws; d++ {
		sub := a.sampleSorted(ref, size, parent.Fork(uint64(d)))
		for n := lo; n <= hi; n++ {
			if got, want := gotB[n-lo][d], float64(refBlockCount(sub, n)); got != want {
				t.Fatalf("SampleBlocks /%d draw %d: got %v, want %v", n, d, got, want)
			}
			if got, want := gotI[n-lo][d], float64(refBlockIntersectCount(sub, targetRef, n)); got != want {
				t.Fatalf("SampleIntersections /%d draw %d: got %v, want %v", n, d, got, want)
			}
		}
	}
}

// TestCompressedCodecIdentical proves the v2 image's two parse paths —
// aliasing the image, as a mapping does, and copying out of it — load
// the same membership, and that either re-encodes to the identical bytes.
func TestCompressedCodecIdentical(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(37)
			s, ref := shape.build(rng)
			img := alignedCopy(writeV2(t, s))
			for _, alias := range []bool{true, false} {
				back, err := parseV2(img, alias)
				if err != nil {
					t.Fatal(err)
				}
				sameAddrs(t, fmt.Sprintf("alias=%v", alias), back, ref)
				if !bytes.Equal(writeV2(t, back), img) {
					t.Fatalf("alias=%v: re-encoding differs from the image", alias)
				}
			}
		})
	}
}

// TestCompressedMaskedSetAndBlocks checks the block materializers built
// on Each.
func TestCompressedMaskedSetAndBlocks(t *testing.T) {
	for _, shape := range shapedSets() {
		t.Run(shape.name, func(t *testing.T) {
			rng := stats.NewRNG(41)
			s, ref := shape.build(rng)
			for _, n := range []int{0, 8, 12, 16, 20, 24, 30, 32} {
				sameAddrs(t, "masked", s.MaskedSet(n), refMaskedSet(ref, n))
				gb, wb := s.Blocks(n), refBlocks(ref, n)
				if len(gb) != len(wb) {
					t.Fatalf("Blocks(%d): got %d blocks, want %d", n, len(gb), len(wb))
				}
				for i := range gb {
					if gb[i] != wb[i] {
						t.Fatalf("Blocks(%d)[%d]: got %v, want %v", n, i, gb[i], wb[i])
					}
				}
			}
		})
	}
}

// TestCompressedWithinBlocks checks the candidate-population materializer.
func TestCompressedWithinBlocks(t *testing.T) {
	rng := stats.NewRNG(43)
	raw := randomAddrs(rng, 20000)
	s, ref := FromUint32s(raw), refSorted(raw)
	coverRef := refSorted(raw[:500])
	cover := FromUint32s(coverRef)
	for _, n := range []int{8, 16, 20, 24} {
		sameAddrs(t, fmt.Sprintf("/%d", n), s.WithinBlocks(cover, n), refWithinBlocks(ref, coverRef, n))
	}
}

// TestContainerKinds pins the canonical kind choices: sparse /16s become
// arrays, dense ones bitmaps, CIDR-complete ones runs.
func TestContainerKinds(t *testing.T) {
	kindOf := func(s Set) uint8 {
		cs := s.c
		if len(cs.cs) != 1 {
			t.Fatalf("want one container, got %d", len(cs.cs))
		}
		return cs.cs[0].kind
	}
	sparse := make([]uint32, 0, 100)
	for i := uint32(0); i < 100; i++ {
		sparse = append(sparse, 0x0a000000|i*571)
	}
	if k := kindOf(FromUint32s(sparse)); k != arrKind {
		t.Fatalf("sparse: kind %d, want array", k)
	}
	rng := stats.NewRNG(47)
	dense := make([]uint32, 0, 3*arrMaxCard)
	for i := 0; i < 3*arrMaxCard; i++ {
		dense = append(dense, 0x0a000000|rng.Uint32()&0xffff)
	}
	if k := kindOf(FromUint32s(dense)); k != bmpKind {
		t.Fatalf("dense: kind %d, want bitmap", k)
	}
	run := make([]uint32, 0, 1<<16)
	for i := uint32(0); i < 1<<16; i++ {
		run = append(run, 0x0a000000|i)
	}
	full := FromUint32s(run)
	if k := kindOf(full); k != runKind {
		t.Fatalf("full /16: kind %d, want run", k)
	}
	// The whole /16 as one run costs 4 bytes of payload vs 256 KiB raw.
	if fp, raw := full.FootprintBytes(), 4*full.Len(); fp*100 > raw {
		t.Fatalf("full /16 footprint %d not ≪ raw %d", fp, raw)
	}
}

// TestCompressFootprint checks the containers actually shrink a
// clustered membership below its 4 bytes per address as raw uint32s —
// the reason they exist.
func TestCompressFootprint(t *testing.T) {
	rng := stats.NewRNG(53)
	// Clustered like unclean space: 64 /16s holding ~8k addrs each.
	b := NewBuilder(64 * 8192)
	for k := 0; k < 64; k++ {
		base := rng.Uint32() &^ 0xffff
		for i := 0; i < 8192; i++ {
			b.Add(netaddr.Addr(base | rng.Uint32()&0xffff))
		}
	}
	s := b.Build()
	raw, comp := 4*s.Len(), s.FootprintBytes()
	if comp >= raw {
		t.Fatalf("clustered footprint did not shrink: %d >= %d", comp, raw)
	}
}

// TestBuilderSortedFastPath checks Build returns identical sets with and
// without the sorted fast path, including through AddSet.
func TestBuilderSortedFastPath(t *testing.T) {
	rng := stats.NewRNG(61)
	base := randomSet(rng, 5000)
	// Sorted input: AddSet then in-order Adds.
	b := NewBuilder(0)
	b.Grow(base.Len() + 10)
	b.AddSet(base)
	if !b.sorted {
		t.Fatal("AddSet of a sorted set should keep the builder sorted")
	}
	last := uint32(base.At(base.Len() - 1))
	for i := uint32(1); i <= 10; i++ {
		b.Add(netaddr.Addr(last + i))
	}
	if !b.sorted {
		t.Fatal("in-order Adds should keep the builder sorted")
	}
	got := b.Build()
	// Reference: same membership built out of order.
	b2 := NewBuilder(0)
	for i := uint32(10); i >= 1; i-- {
		b2.Add(netaddr.Addr(last + i))
	}
	b2.AddSet(base)
	if b2.sorted {
		t.Fatal("out-of-order input should clear the sorted flag")
	}
	want := addrsOf(base)
	for i := uint32(1); i <= 10; i++ {
		want = append(want, last+i)
	}
	sameAddrs(t, "fastpath", got, want)
	sameAddrs(t, "shuffled", b2.Build(), want)
}
