package simnet

import (
	"math/bits"

	"unclean/internal/netflow"
)

// Stable time order for synthesized records. Generators emit a day's
// records source by source, so the pipeline must sort them by First,
// keeping records with equal First in generation order. A comparison sort
// over the records themselves copies each one O(log² n) times; instead
// the order is computed over compact (key, index) pairs by an LSD radix
// sort, which is stable by construction (as in ipset/sort.go), and the
// records then move once — or, for a spilled run, never: the run is
// encoded straight through the order.

// timeOrder returns the permutation that stable-sorts records by First:
// records[perm[0]], records[perm[1]], ... run in time order, and records
// with equal First keep their relative order. Keys are First.UnixNano()
// minus the minimum, sorted a byte at a time over only as many bytes as
// the key span needs; a byte that is the same for every key is skipped.
// Synthesized and decoded times carry no monotonic clock reading, so
// UnixNano order is First.Compare order.
// Scratch is 24 bytes per record: two key buffers and two index buffers
// for the ping-pong passes.
func timeOrder(records []netflow.Record) []uint32 {
	n := len(records)
	keys := make([]uint64, 2*n)
	idx := make([]uint32, 2*n)
	k, tk := keys[:n], keys[n:]
	p, tp := idx[:n], idx[n:]
	if n == 0 {
		return p
	}
	lo := records[0].First.UnixNano()
	for i := range records {
		t := records[i].First.UnixNano()
		k[i] = uint64(t)
		lo = min(lo, t)
	}
	// uint64(t - lo) is the exact span even when t - lo overflows int64.
	var span uint64
	for i := range k {
		k[i] -= uint64(lo)
		span |= k[i]
		p[i] = uint32(i)
	}
	digits := (bits.Len64(span) + 7) / 8
	var counts [8][256]int
	for _, v := range k {
		for d := 0; d < digits; d++ {
			counts[d][byte(v>>(8*d))]++
		}
	}
	for d := 0; d < digits; d++ {
		c := &counts[d]
		shift := 8 * d
		if c[byte(k[0]>>shift)] == n {
			continue // every key shares this byte
		}
		var offs [256]int
		off := 0
		for b := range offs {
			offs[b] = off
			off += c[b]
		}
		for i, v := range k {
			b := byte(v >> shift)
			o := offs[b]
			tk[o], tp[o] = v, p[i]
			offs[b] = o + 1
		}
		k, tk = tk, k
		p, tp = tp, p
	}
	return p
}

// permute reorders records so that records[i] becomes the old
// records[perm[i]], moving each record once by following the
// permutation's cycles. perm is consumed: it is left as the identity.
func permute(records []netflow.Record, perm []uint32) {
	for i := range perm {
		if perm[i] == uint32(i) {
			continue
		}
		tmp := records[i]
		j := i
		for {
			k := int(perm[j])
			perm[j] = uint32(j)
			if k == i {
				records[j] = tmp
				break
			}
			records[j] = records[k]
			j = k
		}
	}
}

// sortByTime stable-sorts records by flow start time in place. Stable,
// so records with equal timestamps keep generation order: per-day sorts
// followed by mergeByTime reproduce one stable sort of the whole log.
func sortByTime(records []netflow.Record) {
	permute(records, timeOrder(records))
}
