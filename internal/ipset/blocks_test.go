package ipset

import (
	"testing"
	"testing/quick"

	"unclean/internal/netaddr"
)

func TestBlockCountKnown(t *testing.T) {
	s := MustParse("10.1.1.1 10.1.1.2 10.1.2.1 10.2.0.1 11.0.0.1")
	cases := []struct{ n, want int }{
		{0, 1}, {8, 2}, {16, 3}, {24, 4}, {32, 5},
	}
	for _, c := range cases {
		if got := s.BlockCount(c.n); got != c.want {
			t.Errorf("BlockCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	var empty Set
	if empty.BlockCount(16) != 0 {
		t.Error("empty BlockCount should be 0")
	}
}

func TestBlockCountsMatchesBlockCount(t *testing.T) {
	f := func(raw []uint32) bool {
		s := toSet(raw)
		counts := s.BlockCounts(0, 32)
		for n := 0; n <= 32; n++ {
			if counts[n] != s.BlockCount(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCountsMonotone(t *testing.T) {
	// |C_n(S)| is non-decreasing in n and bounded by |S|.
	f := func(raw []uint32) bool {
		s := toSet(raw)
		counts := s.BlockCounts(16, 32)
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				return false
			}
		}
		return len(raw) == 0 || counts[len(counts)-1] == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockCountsPanics(t *testing.T) {
	s := MustParse("1.2.3.4")
	for _, c := range [][2]int{{-1, 5}, {5, 33}, {20, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BlockCounts(%d,%d) did not panic", c[0], c[1])
				}
			}()
			s.BlockCounts(c[0], c[1])
		}()
	}
}

func TestBlocks(t *testing.T) {
	s := MustParse("10.1.1.1 10.1.200.9 10.2.0.1")
	blocks := s.Blocks(16)
	want := []string{"10.1.0.0/16", "10.2.0.0/16"}
	if len(blocks) != len(want) {
		t.Fatalf("Blocks = %v", blocks)
	}
	for i, b := range blocks {
		if b.String() != want[i] {
			t.Errorf("Blocks[%d] = %s, want %s", i, b, want[i])
		}
	}
}

func TestMaskedSet(t *testing.T) {
	s := MustParse("10.1.1.1 10.1.200.9 10.2.0.1")
	m := s.MaskedSet(16)
	if m.Len() != 2 || !m.Contains(netaddr.MustParseAddr("10.1.0.0")) {
		t.Fatalf("MaskedSet = %v", m)
	}
	if got, want := m.Len(), s.BlockCount(16); got != want {
		t.Errorf("MaskedSet len %d != BlockCount %d", got, want)
	}
}

func TestBlockIntersectCountKnown(t *testing.T) {
	a := MustParse("10.1.1.1 10.2.1.1 10.3.1.1")
	b := MustParse("10.1.99.99 10.4.1.1")
	if got := a.BlockIntersectCount(b, 16); got != 1 {
		t.Errorf("intersect at /16 = %d, want 1", got)
	}
	if got := a.BlockIntersectCount(b, 8); got != 1 {
		t.Errorf("intersect at /8 = %d, want 1", got)
	}
	if got := a.BlockIntersectCount(b, 32); got != 0 {
		t.Errorf("intersect at /32 = %d, want 0", got)
	}
}

func TestBlockIntersectCountProperties(t *testing.T) {
	symmetric := func(ra, rb []uint32, nRaw uint8) bool {
		n := int(nRaw % 33)
		a, b := toSet(ra), toSet(rb)
		return a.BlockIntersectCount(b, n) == b.BlockIntersectCount(a, n)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	viaMasked := func(ra, rb []uint32, nRaw uint8) bool {
		n := int(nRaw % 33)
		a, b := toSet(ra), toSet(rb)
		want := a.MaskedSet(n).Intersect(b.MaskedSet(n)).Len()
		return a.BlockIntersectCount(b, n) == want
	}
	if err := quick.Check(viaMasked, nil); err != nil {
		t.Errorf("against masked-set intersection: %v", err)
	}
	at32 := func(ra, rb []uint32) bool {
		a, b := toSet(ra), toSet(rb)
		return a.BlockIntersectCount(b, 32) == a.Intersect(b).Len()
	}
	if err := quick.Check(at32, nil); err != nil {
		t.Errorf("/32 equals raw intersection: %v", err)
	}
}

func TestWithinBlocks(t *testing.T) {
	traffic := MustParse("10.1.5.5 10.1.6.6 10.2.0.1 11.0.0.1")
	cover := MustParse("10.1.0.0")
	got := traffic.WithinBlocks(cover, 16)
	if got.Len() != 2 {
		t.Fatalf("WithinBlocks = %v", got)
	}
	if !got.Contains(netaddr.MustParseAddr("10.1.5.5")) || !got.Contains(netaddr.MustParseAddr("10.1.6.6")) {
		t.Fatalf("WithinBlocks membership wrong: %v", got)
	}
}

func TestWithinBlocksMatchesFilter(t *testing.T) {
	f := func(ra, rb []uint32, nRaw uint8) bool {
		n := int(nRaw % 33)
		a, b := toSet(ra), toSet(rb)
		cover := refSorted(rb)
		want := a.Filter(func(addr netaddr.Addr) bool { return refInBlocks(cover, uint32(addr), n) })
		return a.WithinBlocks(b, n).Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
