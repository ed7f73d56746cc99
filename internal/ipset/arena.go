package ipset

import (
	"math/bits"
	"sync"

	"unclean/internal/stats"
)

// Scratch arenas for the Monte-Carlo draw kernels. Each worker of a
// sampling loop owns one sampleArena; a steady-state draw (mark k ranks in
// a bitmap, walk them in ascending order into the draw's counters)
// touches only arena memory and the output cell it was assigned,
// performing zero heap allocations. Arenas are recycled through a
// sync.Pool so repeated experiments reuse the high-water-mark buffers
// instead of regrowing them.

type sampleArena struct {
	// A two-level bitmap over the ranks of the population: one bit per
	// rank, and one summary bit per nonzero word of ranks. Both levels
	// are all zero between draws, because the walk clears what it reads.
	ranks   []uint64
	summary []uint64
	table   idxTable // displacement map for sparse Fisher-Yates
}

var arenaPool = sync.Pool{New: func() any { return new(sampleArena) }}

func getArena() *sampleArena  { return arenaPool.Get().(*sampleArena) }
func putArena(a *sampleArena) { arenaPool.Put(a) }

// populationPool recycles the draw kernels' population buffers: the
// sampled set's addresses, then the target's, which a kernel call fills
// once and its draws share. It is a pool of its own because a call takes
// exactly one buffer, so the next call gets back the buffer this one
// grew, where the arena pool hands a call's several arenas back last in,
// first out.
var populationPool = sync.Pool{New: func() any { return new([]uint32) }}

// drawRanks draws a uniform k-subset of the ranks [0, n) and calls visit
// on each chosen rank in ascending order; the caller has checked
// 0 <= k <= n. When k == n it visits every rank and consumes no
// randomness, mirroring Set.Sample's full-set fast path.
//
// The generator stream consumed here is bit-for-bit the stream the
// original map/permutation implementation consumed (same branch point,
// same Intn sequence), so seeded experiment outputs are unchanged.
func (a *sampleArena) drawRanks(n, k int, rng *stats.RNG, visit func(rank int)) {
	if k == 0 {
		return
	}
	if k == n {
		for r := 0; r < n; r++ {
			visit(r)
		}
		return
	}
	words := (n + 63) >> 6
	if len(a.ranks) < words { // grow; a reused prefix is all zero, as every walk leaves it
		a.ranks = make([]uint64, words)
		a.summary = make([]uint64, (words+63)>>6)
	}
	if k <= n/16 {
		// Floyd's subset sampling over ranks. The rank bit is the chosen
		// set; membership decisions (and therefore the Intn stream) are
		// those of the original map[int]struct{}.
		for i := n - k; i < n; i++ {
			if !a.mark(rng.Intn(i + 1)) {
				// Already chosen: Floyd's fallback picks i, which can
				// never be a duplicate (all prior picks are < i).
				a.mark(i)
			}
		}
	} else {
		// Sparse partial Fisher-Yates: the displacement map stands in for
		// the length-n index permutation, so memory stays O(k). Position
		// i is final after step i (later steps only touch j >= i), which
		// is why recording the displacement for j alone suffices.
		t := &a.table
		t.reset(k)
		for i := 0; i < k; i++ {
			j := uint32(i + rng.Intn(n-i))
			vi, vj := t.get(uint32(i), uint32(i)), t.get(j, j)
			t.put(j, vi)
			a.mark(int(vj))
		}
	}
	a.walk((words+63)>>6, visit)
}

// mark sets rank r's bit and reports whether it was clear.
func (a *sampleArena) mark(r int) bool {
	w, bit := r>>6, uint64(1)<<(r&63)
	if a.ranks[w]&bit != 0 {
		return false
	}
	a.ranks[w] |= bit
	a.summary[w>>6] |= 1 << (w & 63)
	return true
}

// walk visits every marked rank in ascending order and clears both
// levels behind it; summaries is the number of summary words the
// population spans.
func (a *sampleArena) walk(summaries int, visit func(rank int)) {
	for si, s := range a.summary[:summaries] {
		if s == 0 {
			continue
		}
		a.summary[si] = 0
		for ; s != 0; s &= s - 1 {
			w := si<<6 | bits.TrailingZeros64(s)
			for b := a.ranks[w]; b != 0; b &= b - 1 {
				visit(w<<6 | bits.TrailingZeros64(b))
			}
			a.ranks[w] = 0
		}
	}
}

// idxTable is an epoch-stamped open-addressing hash map over sample
// indices. reset is O(1) (an epoch bump invalidates all slots), so one
// table serves thousands of draws without clearing or allocating.
type idxTable struct {
	keys  []uint32
	vals  []uint32
	epoch []uint32
	cur   uint32
	mask  uint32
	shift uint32
}

func (t *idxTable) reset(capacity int) {
	need := 4
	for need < capacity*2 {
		need <<= 1
	}
	if len(t.keys) < need {
		t.keys = make([]uint32, need)
		t.vals = make([]uint32, need)
		t.epoch = make([]uint32, need)
		t.cur = 0
	}
	size := uint32(len(t.keys))
	t.mask = size - 1
	t.shift = 32
	for 1<<(32-t.shift) < size {
		t.shift--
	}
	t.cur++
	if t.cur == 0 { // epoch counter wrapped: flush stale stamps once
		for i := range t.epoch {
			t.epoch[i] = 0
		}
		t.cur = 1
	}
}

// slot returns the probe start for key (Fibonacci hashing on the high
// bits, which scatters the near-sequential index keys well).
func (t *idxTable) slot(key uint32) uint32 {
	return (key * 0x9e3779b9) >> t.shift & t.mask
}

// get returns the value stored at key, or fallback if key is absent.
func (t *idxTable) get(key, fallback uint32) uint32 {
	h := t.slot(key)
	for {
		if t.epoch[h] != t.cur {
			return fallback
		}
		if t.keys[h] == key {
			return t.vals[h]
		}
		h = (h + 1) & t.mask
	}
}

// put stores key -> val, overwriting any existing entry.
func (t *idxTable) put(key, val uint32) {
	h := t.slot(key)
	for {
		if t.epoch[h] != t.cur {
			t.epoch[h] = t.cur
			t.keys[h] = key
			t.vals[h] = val
			return
		}
		if t.keys[h] == key {
			t.vals[h] = val
			return
		}
		h = (h + 1) & t.mask
	}
}
