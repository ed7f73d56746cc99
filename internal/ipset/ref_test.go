package ipset

import (
	"slices"
	"sort"

	"unclean/internal/netaddr"
)

// The reference the container suites compare against: every Set
// primitive over a plain sorted, duplicate-free []uint32, by sorted merges
// and linear scans that share no code with the containers.

// refSorted returns raw's distinct addresses in ascending order.
func refSorted(raw []uint32) []uint32 {
	out := slices.Clone(raw)
	slices.Sort(out)
	return slices.Compact(out)
}

func refContains(s []uint32, a uint32) bool {
	_, found := slices.BinarySearch(s, a)
	return found
}

func refUnion(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func refIntersect(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func refDifference(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) {
		if j >= len(b) || a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else if a[i] > b[j] {
			j++
		} else {
			i++
			j++
		}
	}
	return out
}

// refMaskedSet is C_n(s) as sorted block bases.
func refMaskedSet(s []uint32, n int) []uint32 {
	mask := maskFor(n)
	var out []uint32
	for _, u := range s {
		if p := u & mask; len(out) == 0 || out[len(out)-1] != p {
			out = append(out, p)
		}
	}
	return out
}

func refBlockCount(s []uint32, n int) int { return len(refMaskedSet(s, n)) }

func refBlockIntersectCount(a, b []uint32, n int) int {
	return len(refIntersect(refMaskedSet(a, n), refMaskedSet(b, n)))
}

func refBlocks(s []uint32, n int) []netaddr.Block {
	var out []netaddr.Block
	for _, p := range refMaskedSet(s, n) {
		out = append(out, netaddr.Addr(p).Block(n))
	}
	return out
}

func refInBlocks(s []uint32, a uint32, n int) bool {
	mask := maskFor(n)
	want := a & mask
	i := sort.Search(len(s), func(i int) bool { return s[i]&mask >= want })
	return i < len(s) && s[i]&mask == want
}

func refWithinBlocks(s, cover []uint32, n int) []uint32 {
	var out []uint32
	for _, u := range s {
		if refInBlocks(cover, u, n) {
			out = append(out, u)
		}
	}
	return out
}
