package ipset

import (
	"math/bits"

	"unclean/internal/netaddr"
)

// The Set representation: roaring-style containers keyed by the high 16
// address bits. Each populated /16 holds exactly one container, and the
// container kind is chosen canonically from the membership alone:
//
//   - array: sorted low-16 values, 2 bytes each — sparse /16s
//   - bitmap: 1024 words (8 KiB) — /16s with more than arrMaxCard addrs
//   - run: sorted (start, last) pairs, 4 bytes each — CIDR-dense blocks
//
// whichever is smallest. The 46.9M-address control report, which is
// ~188 MB as raw uint32s, compresses to tens of MB because unclean
// space is clustered: dense /16s become bitmaps or runs, sparse ones
// short arrays. Set algebra, membership, iteration, sampling, and the
// C_n block-counting primitives all operate container-wise — a set is
// never decompressed wholesale to answer a query.

const (
	arrKind = uint8(iota) // sorted []uint16 of low-16 values
	bmpKind               // 1024-word bitmap over the low 16 bits
	runKind               // sorted (start, last) uint16 pairs, inclusive

	// arrMaxCard is the array-container ceiling: above it a bitmap is
	// denser and faster, so arrays never exceed it.
	arrMaxCard = 4096

	bmpWords = 1 << 16 / 64 // 1024
)

// ctr is one container: the members of a single /16.
type ctr struct {
	key  uint16 // high 16 bits of every member
	kind uint8
	card uint32
	arr  []uint16 // arrKind: values; runKind: (start, last) pairs
	bits []uint64 // bmpKind: bmpWords words
}

// containers is a Set's body: one ctr per populated /16, ascending by
// key, none empty. The zero value is the empty set.
type containers struct {
	cs []ctr
	n  int // total cardinality
}

// chooseKind picks the canonical container kind for a membership with
// the given cardinality and run count. Equal memberships always get
// equal representations, which keeps Equal and the codecs simple.
func chooseKind(card, runs int) uint8 {
	runBytes := 4 * runs
	arrBytes := 1 << 30
	if card <= arrMaxCard {
		arrBytes = 2 * card
	}
	if runBytes < arrBytes && runBytes < 8192 {
		return runKind
	}
	if arrBytes <= 8192 {
		return arrKind
	}
	return bmpKind
}

// fill writes the payload of a container whose key, card and kind are
// set from its members addrs (sorted, deduplicated full addresses), and
// carves it off the front of a slab: *u16 for an array or run container,
// *u64 for a bitmap.
func (c *ctr) fill(addrs []uint32, u16 *[]uint16, u64 *[]uint64) {
	switch c.kind {
	case arrKind:
		c.arr, *u16 = (*u16)[:len(addrs):len(addrs)], (*u16)[len(addrs):]
		for i, u := range addrs {
			c.arr[i] = uint16(u)
		}
	case runKind:
		c.arr = (*u16)[:0]
		start := uint16(addrs[0])
		prev := start
		for _, u := range addrs[1:] {
			v := uint16(u)
			if v != prev+1 {
				c.arr = append(c.arr, start, prev)
				start = v
			}
			prev = v
		}
		c.arr = append(c.arr, start, prev)
		c.arr, *u16 = c.arr[:len(c.arr):len(c.arr)], (*u16)[len(c.arr):]
	case bmpKind:
		c.bits, *u64 = (*u64)[:bmpWords:bmpWords], (*u64)[bmpWords:]
		for _, u := range addrs {
			v := uint16(u)
			c.bits[v>>6] |= 1 << (v & 63)
		}
	}
}

// ctrFromBits builds the canonical container for key from a scratch
// bitmap. The scratch is not retained.
func ctrFromBits(key uint16, b *[bmpWords]uint64) (ctr, bool) {
	card, runs := 0, 0
	var carry uint64 // low bit = last bit of the previous word
	for _, w := range b {
		card += bits.OnesCount64(w)
		runs += bits.OnesCount64(w &^ (w<<1 | carry))
		carry = w >> 63
	}
	if card == 0 {
		return ctr{}, false
	}
	c := ctr{key: key, card: uint32(card), kind: chooseKind(card, runs)}
	switch c.kind {
	case arrKind:
		c.arr = make([]uint16, 0, card)
		for wi, w := range b {
			for w != 0 {
				c.arr = append(c.arr, uint16(wi<<6+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	case runKind:
		c.arr = make([]uint16, 0, 2*runs)
		inRun := false
		var start uint16
		for wi, w := range b {
			for bit := 0; bit < 64; {
				if w>>uint(bit)&1 == 1 {
					if !inRun {
						start = uint16(wi<<6 + bit)
						inRun = true
					}
					bit++
					continue
				}
				if inRun {
					c.arr = append(c.arr, start, uint16(wi<<6+bit-1))
					inRun = false
				}
				// Skip the rest of an all-zero remainder quickly.
				if w>>uint(bit) == 0 {
					break
				}
				bit++
			}
		}
		if inRun {
			c.arr = append(c.arr, start, 0xffff)
		}
	case bmpKind:
		c.bits = make([]uint64, bmpWords)
		copy(c.bits, b[:])
	}
	return c, true
}

// expandBits writes the container's membership into the scratch bitmap,
// clearing it first, and returns a pointer to the container's own words
// when it is already a bitmap (no copy).
func (c *ctr) expandBits(scratch *[bmpWords]uint64) *[bmpWords]uint64 {
	if c.kind == bmpKind {
		return (*[bmpWords]uint64)(c.bits)
	}
	clear(scratch[:])
	switch c.kind {
	case arrKind:
		for _, v := range c.arr {
			scratch[v>>6] |= 1 << (v & 63)
		}
	case runKind:
		for i := 0; i < len(c.arr); i += 2 {
			setBitRange(scratch, c.arr[i], c.arr[i+1])
		}
	}
	return scratch
}

// setBitRange sets bits [lo, hi] (inclusive) in b.
func setBitRange(b *[bmpWords]uint64, lo, hi uint16) {
	lw, hw := int(lo>>6), int(hi>>6)
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - hi&63)
	if lw == hw {
		b[lw] |= loMask & hiMask
		return
	}
	b[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		b[w] = ^uint64(0)
	}
	b[hw] |= hiMask
}

// contains reports membership of the low-16 value v.
func (c *ctr) contains(v uint16) bool {
	switch c.kind {
	case arrKind:
		lo, hi := 0, len(c.arr)
		for lo < hi {
			mid := (lo + hi) / 2
			if c.arr[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(c.arr) && c.arr[lo] == v
	case bmpKind:
		return c.bits[v>>6]>>(v&63)&1 == 1
	case runKind:
		// Find the last run starting at or before v.
		lo, hi := 0, len(c.arr)/2
		for lo < hi {
			mid := (lo + hi) / 2
			if c.arr[2*mid] <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo > 0 && v <= c.arr[2*(lo-1)+1]
	}
	return false
}

// each calls fn with every full address of the container in ascending
// order; it stops and reports false if fn returns false.
func (c *ctr) each(fn func(netaddr.Addr) bool) bool {
	base := uint32(c.key) << 16
	switch c.kind {
	case arrKind:
		for _, v := range c.arr {
			if !fn(netaddr.Addr(base | uint32(v))) {
				return false
			}
		}
	case bmpKind:
		for wi, w := range c.bits {
			for w != 0 {
				v := uint32(wi<<6 + bits.TrailingZeros64(w))
				if !fn(netaddr.Addr(base | v)) {
					return false
				}
				w &= w - 1
			}
		}
	case runKind:
		for i := 0; i < len(c.arr); i += 2 {
			for v := int(c.arr[i]); v <= int(c.arr[i+1]); v++ {
				if !fn(netaddr.Addr(base | uint32(v))) {
					return false
				}
			}
		}
	}
	return true
}

// appendAddrs appends the container's full addresses, ascending, to dst.
func (c *ctr) appendAddrs(dst []uint32) []uint32 {
	base := uint32(c.key) << 16
	switch c.kind {
	case arrKind:
		for _, v := range c.arr {
			dst = append(dst, base|uint32(v))
		}
	case bmpKind:
		for wi, w := range c.bits {
			for w != 0 {
				dst = append(dst, base|uint32(wi<<6+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	case runKind:
		for i := 0; i < len(c.arr); i += 2 {
			for v := int(c.arr[i]); v <= int(c.arr[i+1]); v++ {
				dst = append(dst, base|uint32(v))
			}
		}
	}
	return dst
}

// memBytes approximates the container's heap footprint.
func (c *ctr) memBytes() int {
	return 2*len(c.arr) + 8*len(c.bits) + 48 // struct header overhead
}

// compressSorted builds containers from a sorted, deduplicated slice,
// which it does not retain. It counts the /16s and sizes each one's
// payload before filling any, so the container list, the array and run
// payloads, and the bitmaps take one allocation each however many /16s
// the set spans.
func compressSorted(addrs []uint32) containers {
	count := 0
	for i := range addrs {
		if i == 0 || addrs[i]>>16 != addrs[i-1]>>16 {
			count++
		}
	}
	out := containers{cs: make([]ctr, count), n: len(addrs)}
	n16, n64 := 0, 0
	for i, k := 0, 0; i < len(addrs); k++ {
		key := uint16(addrs[i] >> 16)
		runs := 1
		j := i + 1
		for ; j < len(addrs) && uint16(addrs[j]>>16) == key; j++ {
			if addrs[j] != addrs[j-1]+1 {
				runs++
			}
		}
		c := &out.cs[k]
		c.key, c.card, c.kind = key, uint32(j-i), chooseKind(j-i, runs)
		switch c.kind {
		case arrKind:
			n16 += j - i
		case runKind:
			n16 += 2 * runs
		case bmpKind:
			n64 += bmpWords
		}
		i = j
	}
	u16, u64 := make([]uint16, n16), make([]uint64, n64)
	for k, i := 0, 0; k < count; k++ {
		c := &out.cs[k]
		c.fill(addrs[i:i+int(c.card)], &u16, &u64)
		i += int(c.card)
	}
	return out
}

// find returns the index of the container with the given key, or -1.
func (cs *containers) find(key uint16) int {
	lo, hi := 0, len(cs.cs)
	for lo < hi {
		mid := (lo + hi) / 2
		if cs.cs[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cs.cs) && cs.cs[lo].key == key {
		return lo
	}
	return -1
}

// appendAddrs materializes the full sorted membership into dst.
func (cs *containers) appendAddrs(dst []uint32) []uint32 {
	for i := range cs.cs {
		dst = cs.cs[i].appendAddrs(dst)
	}
	return dst
}

// memBytes approximates the compressed heap footprint.
func (cs *containers) memBytes() int {
	total := 24
	for i := range cs.cs {
		total += cs.cs[i].memBytes()
	}
	return total
}

// Container-wise set algebra. Single-key containers of the result share
// the input's backing storage (sets are immutable); merged keys take
// the array merge fast path when both sides are arrays, and fall back
// to an 8 KiB scratch-bitmap word op otherwise — never a whole-set
// decompression.

func unionContainers(a, b *containers) containers {
	out := containers{cs: make([]ctr, 0, max(len(a.cs), len(b.cs)))}
	var scratch, scratch2 [bmpWords]uint64
	i, j := 0, 0
	for i < len(a.cs) && j < len(b.cs) {
		ca, cb := &a.cs[i], &b.cs[j]
		switch {
		case ca.key < cb.key:
			out.cs = append(out.cs, *ca)
			i++
		case ca.key > cb.key:
			out.cs = append(out.cs, *cb)
			j++
		default:
			if ca.kind == arrKind && cb.kind == arrKind && int(ca.card+cb.card) <= arrMaxCard {
				out.cs = append(out.cs, unionArrays(ca, cb))
			} else {
				ba := ca.expandBits(&scratch)
				bb := cb.expandBits(&scratch2)
				var merged [bmpWords]uint64
				for w := range merged {
					merged[w] = ba[w] | bb[w]
				}
				c, _ := ctrFromBits(ca.key, &merged)
				out.cs = append(out.cs, c)
			}
			i++
			j++
		}
	}
	out.cs = append(out.cs, a.cs[i:]...)
	out.cs = append(out.cs, b.cs[j:]...)
	for i := range out.cs {
		out.n += int(out.cs[i].card)
	}
	return out
}

// unionArrays merges two array containers whose combined cardinality
// fits an array, re-canonicalizing (the merge may still be run-densest).
func unionArrays(a, b *ctr) ctr {
	merged := make([]uint16, 0, a.card+b.card)
	i, j := 0, 0
	for i < len(a.arr) && j < len(b.arr) {
		switch {
		case a.arr[i] < b.arr[j]:
			merged = append(merged, a.arr[i])
			i++
		case a.arr[i] > b.arr[j]:
			merged = append(merged, b.arr[j])
			j++
		default:
			merged = append(merged, a.arr[i])
			i++
			j++
		}
	}
	merged = append(merged, a.arr[i:]...)
	merged = append(merged, b.arr[j:]...)
	return ctrFromLows(a.key, merged)
}

// ctrFromLows builds the canonical container from sorted, deduplicated
// low-16 values.
func ctrFromLows(key uint16, lows []uint16) ctr {
	runs := 1
	for i := 1; i < len(lows); i++ {
		if lows[i] != lows[i-1]+1 {
			runs++
		}
	}
	c := ctr{key: key, card: uint32(len(lows)), kind: chooseKind(len(lows), runs)}
	switch c.kind {
	case arrKind:
		c.arr = lows
	case runKind:
		c.arr = make([]uint16, 0, 2*runs)
		start, prev := lows[0], lows[0]
		for _, v := range lows[1:] {
			if v != prev+1 {
				c.arr = append(c.arr, start, prev)
				start = v
			}
			prev = v
		}
		c.arr = append(c.arr, start, prev)
	case bmpKind:
		c.bits = make([]uint64, bmpWords)
		for _, v := range lows {
			c.bits[v>>6] |= 1 << (v & 63)
		}
	}
	return c
}

func intersectContainers(a, b *containers) containers {
	out := containers{}
	var scratch, scratch2 [bmpWords]uint64
	i, j := 0, 0
	for i < len(a.cs) && j < len(b.cs) {
		ca, cb := &a.cs[i], &b.cs[j]
		switch {
		case ca.key < cb.key:
			i++
		case ca.key > cb.key:
			j++
		default:
			if ca.kind == arrKind && cb.kind == arrKind {
				lows := intersectArrays(ca.arr, cb.arr)
				if len(lows) > 0 {
					out.cs = append(out.cs, ctrFromLows(ca.key, lows))
				}
			} else {
				ba := ca.expandBits(&scratch)
				bb := cb.expandBits(&scratch2)
				var merged [bmpWords]uint64
				for w := range merged {
					merged[w] = ba[w] & bb[w]
				}
				if c, ok := ctrFromBits(ca.key, &merged); ok {
					out.cs = append(out.cs, c)
				}
			}
			i++
			j++
		}
	}
	for i := range out.cs {
		out.n += int(out.cs[i].card)
	}
	return out
}

func intersectArrays(a, b []uint16) []uint16 {
	var out []uint16
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

func differenceContainers(a, b *containers) containers {
	out := containers{}
	var scratch, scratch2 [bmpWords]uint64
	i, j := 0, 0
	for i < len(a.cs) {
		ca := &a.cs[i]
		for j < len(b.cs) && b.cs[j].key < ca.key {
			j++
		}
		if j >= len(b.cs) || b.cs[j].key != ca.key {
			out.cs = append(out.cs, *ca)
			i++
			continue
		}
		cb := &b.cs[j]
		if ca.kind == arrKind && cb.kind == arrKind {
			lows := differenceArrays(ca.arr, cb.arr)
			if len(lows) > 0 {
				out.cs = append(out.cs, ctrFromLows(ca.key, lows))
			}
		} else {
			ba := ca.expandBits(&scratch)
			bb := cb.expandBits(&scratch2)
			var merged [bmpWords]uint64
			for w := range merged {
				merged[w] = ba[w] &^ bb[w]
			}
			if c, ok := ctrFromBits(ca.key, &merged); ok {
				out.cs = append(out.cs, c)
			}
		}
		i++
		j++
	}
	for i := range out.cs {
		out.n += int(out.cs[i].card)
	}
	return out
}

func differenceArrays(a, b []uint16) []uint16 {
	var out []uint16
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

// Block-counting primitives computed from container metadata.

// blockCount returns |C_n| for the compressed set without decompressing
// any container: short prefixes count distinct key prefixes, long ones
// count masked distinct values per container kind.
func (cs *containers) blockCount(n int) int {
	if len(cs.cs) == 0 {
		return 0
	}
	switch {
	case n == 0:
		return 1
	case n <= 16:
		shift := uint(16 - n)
		count := 1
		prev := cs.cs[0].key >> shift
		for i := 1; i < len(cs.cs); i++ {
			if p := cs.cs[i].key >> shift; p != prev {
				count++
				prev = p
			}
		}
		return count
	case n == 32:
		return cs.n
	}
	shift := uint(32 - n) // 1..15: block width inside a /16
	count := 0
	for i := range cs.cs {
		count += cs.cs[i].maskedCount(shift)
	}
	return count
}

// maskedCount counts distinct (value >> shift) within the container.
func (c *ctr) maskedCount(shift uint) int {
	switch c.kind {
	case arrKind:
		count := 1
		prev := c.arr[0] >> shift
		for _, v := range c.arr[1:] {
			if p := v >> shift; p != prev {
				count++
				prev = p
			}
		}
		return count
	case runKind:
		count := 0
		prev := -1
		for i := 0; i < len(c.arr); i += 2 {
			lo, hi := int(c.arr[i]>>shift), int(c.arr[i+1]>>shift)
			count += hi - lo + 1
			if lo == prev {
				count--
			}
			prev = hi
		}
		return count
	case bmpKind:
		if shift >= 6 {
			// A block spans whole words; count groups with any set bit.
			group := 1 << (shift - 6)
			count := 0
			for g := 0; g < bmpWords; g += group {
				for w := g; w < g+group; w++ {
					if c.bits[w] != 0 {
						count++
						break
					}
				}
			}
			return count
		}
		// Blocks are sub-word chunks of width 1<<shift bits.
		width := uint(1) << shift
		mask := uint64(1)<<width - 1
		count := 0
		for _, w := range c.bits {
			for w != 0 {
				chunk := uint(bits.TrailingZeros64(w)) / width * width
				count++
				w &^= mask << chunk
			}
		}
		return count
	}
	return 0
}

// blockIntersectCount returns |C_n(a) ∩ C_n(b)| container-wise: shared
// masked key prefixes for short n, per-key masked-presence bitmap ANDs
// for long n.
func blockIntersectCountContainers(a, b *containers, n int) int {
	if len(a.cs) == 0 || len(b.cs) == 0 {
		return 0
	}
	if n == 0 {
		return 1
	}
	if n <= 16 {
		shift := uint(16 - n)
		count := 0
		i, j := 0, 0
		for i < len(a.cs) && j < len(b.cs) {
			pa, pb := a.cs[i].key>>shift, b.cs[j].key>>shift
			switch {
			case pa < pb:
				i++
			case pa > pb:
				j++
			default:
				count++
				for i < len(a.cs) && a.cs[i].key>>shift == pa {
					i++
				}
				for j < len(b.cs) && b.cs[j].key>>shift == pb {
					j++
				}
			}
		}
		return count
	}
	shift := uint(32 - n) // 0..15
	count := 0
	var pa, pb [bmpWords]uint64
	i, j := 0, 0
	for i < len(a.cs) && j < len(b.cs) {
		ca, cb := &a.cs[i], &b.cs[j]
		switch {
		case ca.key < cb.key:
			i++
		case ca.key > cb.key:
			j++
		default:
			ca.presence(shift, &pa)
			cb.presence(shift, &pb)
			words := (1 << (16 - shift)) / 64
			if words == 0 {
				words = 1
			}
			for w := 0; w < words; w++ {
				count += bits.OnesCount64(pa[w] & pb[w])
			}
			i++
			j++
		}
	}
	return count
}

// presence fills b with one bit per shift-wide block that holds at
// least one member: bit (v >> shift) is set iff some member v exists.
// shift == 0 reproduces the membership bitmap itself.
func (c *ctr) presence(shift uint, b *[bmpWords]uint64) {
	clear(b[:max(1, 1<<(16-shift)/64)]) // the words the blocks span
	switch c.kind {
	case arrKind:
		for _, v := range c.arr {
			p := v >> shift
			b[p>>6] |= 1 << (p & 63)
		}
	case runKind:
		for i := 0; i < len(c.arr); i += 2 {
			setBitRange(b, c.arr[i]>>shift, c.arr[i+1]>>shift)
		}
	case bmpKind:
		if shift == 0 {
			copy(b[:], c.bits)
			return
		}
		if shift >= 6 {
			group := 1 << (shift - 6)
			for g := 0; g < bmpWords; g += group {
				for w := g; w < g+group; w++ {
					if c.bits[w] != 0 {
						p := g / group
						b[p>>6] |= 1 << (p & 63)
						break
					}
				}
			}
			return
		}
		width := uint(1) << shift
		mask := uint64(1)<<width - 1
		for wi, w := range c.bits {
			for w != 0 {
				chunk := uint(bits.TrailingZeros64(w)) / width * width
				p := uint(wi)<<6/width + chunk/width
				b[p>>6] |= 1 << (p & 63)
				w &^= mask << chunk
			}
		}
	}
}

// selectInto maps sorted member ranks to addresses: out[i] is the
// idxs[i]-th smallest member. idxs must be ascending and in range; one
// forward walk over the containers serves every rank. out[i] is written
// after idxs[i] is read, so out may be idxs itself.
func (cs *containers) selectInto(idxs []uint32, out []uint32) {
	ci := 0
	base := uint32(0) // rank of the first member of container ci
	for i, idx := range idxs {
		for idx >= base+cs.cs[ci].card {
			base += cs.cs[ci].card
			ci++
		}
		out[i] = cs.cs[ci].selectRank(idx - base)
	}
}

// selectRank returns the full address of the rank-th smallest member.
func (c *ctr) selectRank(rank uint32) uint32 {
	base := uint32(c.key) << 16
	switch c.kind {
	case arrKind:
		return base | uint32(c.arr[rank])
	case runKind:
		for i := 0; i < len(c.arr); i += 2 {
			span := uint32(c.arr[i+1]-c.arr[i]) + 1
			if rank < span {
				return base | uint32(c.arr[i]) + rank
			}
			rank -= span
		}
	case bmpKind:
		for wi, w := range c.bits {
			n := uint32(bits.OnesCount64(w))
			if rank < n {
				// Select the rank-th set bit of w.
				for ; rank > 0; rank-- {
					w &= w - 1
				}
				return base | uint32(wi<<6+bits.TrailingZeros64(w))
			}
			rank -= n
		}
	}
	panic("ipset: select rank out of range")
}

// equalContainers compares memberships. Containers are canonical only
// when built by this package's constructors; codec-loaded sets might
// not be, so equal kinds compare directly and mixed kinds compare via
// scratch bitmaps.
func equalContainers(a, b *containers) bool {
	if a.n != b.n || len(a.cs) != len(b.cs) {
		return false
	}
	var sa, sb [bmpWords]uint64
	for i := range a.cs {
		ca, cb := &a.cs[i], &b.cs[i]
		if ca.key != cb.key || ca.card != cb.card {
			return false
		}
		if ca.kind == cb.kind {
			switch ca.kind {
			case arrKind, runKind:
				if !equalU16(ca.arr, cb.arr) {
					return false
				}
			case bmpKind:
				if !equalU64(ca.bits, cb.bits) {
					return false
				}
			}
			continue
		}
		ba := ca.expandBits(&sa)
		bb := cb.expandBits(&sb)
		for w := range ba {
			if ba[w] != bb[w] {
				return false
			}
		}
	}
	return true
}

func equalU16(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
