package simnet

import (
	"math/bits"
	"slices"
	"time"

	"unclean/internal/netflow"
)

// Stable time order for synthesized records. Generators emit a day's
// records source by source, so the pipeline must sort them by First,
// keeping records with equal First in generation order. A comparison sort
// over the records themselves copies each one O(log² n) times; instead
// the order is computed over compact (key, index) pairs by an LSD radix
// sort, which is stable by construction (as in ipset/sort.go), and the
// records then move once.

// passBits is the widest digit a counting pass sorts: 2048 counters.
const passBits = 11

// timeScratch is timeOrder's working memory, 24 bytes per record: two
// key buffers and two index buffers for the ping-pong passes. It grows
// to the most records it has ordered at once (a day, or an hour of a
// spilled day) and is reused from sort to sort.
type timeScratch struct {
	keys []uint64
	idx  []uint32
}

// timePass is one counting pass of timeOrder: the width bits at shift of
// a key's nanoseconds within the second (ns), or of its whole seconds.
type timePass struct {
	ns           bool
	shift, width uint
}

// digit returns the pass's digit of key v: a nanosecond offset for a
// nanoseconds pass, whole seconds for a seconds pass.
func (ps timePass) digit(v uint64) uint64 {
	if ps.ns {
		v %= uint64(time.Second)
	}
	return v >> ps.shift & (1<<ps.width - 1)
}

// appendPasses appends the passes that sort an n-bit part of the key,
// least significant digit first, in as few digits of at most passBits
// bits as n allows, of near-equal width.
func appendPasses(dst []timePass, ns bool, n int) []timePass {
	if n == 0 {
		return dst
	}
	digits := (n + passBits - 1) / passBits
	width := (n + digits - 1) / digits
	for shift := 0; shift < n; shift += width {
		dst = append(dst, timePass{ns, uint(shift), uint(min(width, n-shift))})
	}
	return dst
}

// timeOrder returns the permutation that stable-sorts records by First:
// records[perm[0]], records[perm[1]], ... run in time order, and records
// with equal First keep their relative order. A record's key is First
// minus the run's minimum, read as whole seconds and nanoseconds within
// the second. The nanoseconds are sorted first, then the seconds, each
// in counting passes of at most passBits bits over only the bits that
// part of the key needs; a digit that every key shares is skipped. A
// synthesized day is whole seconds with a 17-bit span: no nanosecond
// pass and two seconds passes. The permutation lives in s and is valid
// until s orders another run.
func (s *timeScratch) timeOrder(records []netflow.Record) []uint32 {
	n := len(records)
	s.reserve(n)
	b := pingPong{k: s.keys[:n], tk: s.keys[n : 2*n], p: s.idx[:n], tp: s.idx[n : 2*n]}
	if n == 0 {
		return b.p
	}
	k := b.k
	lo := records[0].First
	for i := range records {
		t := records[i].First
		k[i] = uint64(t)
		lo = min(lo, t)
	}
	// uint64(t - lo) is the exact span even when t - lo overflows int64.
	var hi, subsec uint64
	for i := range k {
		k[i] -= uint64(lo)
		hi = max(hi, k[i])
		subsec |= k[i] % uint64(time.Second)
		b.p[i] = uint32(i)
	}
	// Either part takes at most four passes: the nanoseconds within a
	// second are 30 bits, the seconds of an int64 nanosecond span 35.
	var passes [4]timePass
	b.sort(appendPasses(passes[:0], true, bits.Len64(subsec)))
	for i := range b.k {
		b.k[i] /= uint64(time.Second)
	}
	b.sort(appendPasses(passes[:0], false, bits.Len64(hi/uint64(time.Second))))
	return b.p
}

// reserve grows s to order up to n records at once.
func (s *timeScratch) reserve(n int) {
	s.keys = slices.Grow(s.keys[:0], 2*n)
	s.idx = slices.Grow(s.idx[:0], 2*n)
}

// pingPong holds the keys k and their record indexes p that the counting
// passes order, and the spare halves tk and tp each pass scatters into.
type pingPong struct {
	k, tk []uint64
	p, tp []uint32
}

// sort runs the counting passes in order, each a stable scatter by its
// digit.
func (b *pingPong) sort(passes []timePass) {
	var counts [1 << passBits]uint32
	for _, ps := range passes {
		c := counts[:1<<ps.width]
		clear(c)
		for _, v := range b.k {
			c[ps.digit(v)]++
		}
		if c[ps.digit(b.k[0])] == uint32(len(b.k)) {
			continue // every key shares this digit
		}
		var off uint32
		for d, m := range c {
			c[d] = off
			off += m
		}
		k, p, tk, tp := b.k, b.p, b.tk, b.tp
		for i, v := range k {
			d := ps.digit(v)
			o := c[d]
			tk[o], tp[o] = v, p[i]
			c[d] = o + 1
		}
		b.k, b.tk = b.tk, b.k
		b.p, b.tp = b.tp, b.p
	}
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

// sortByTime stable-sorts records by flow start time in place, with
// scratch from s. Stable, so records with equal timestamps keep
// generation order: per-day sorts followed by concatenation reproduce
// one stable sort of the whole log.
func (s *timeScratch) sortByTime(records []netflow.Record) {
	permute(records, s.timeOrder(records))
}

// sortByTime is timeScratch.sortByTime with scratch of its own.
func sortByTime(records []netflow.Record) {
	var s timeScratch
	s.sortByTime(records)
}
