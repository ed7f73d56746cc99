package ipset

import (
	"sync"

	"unclean/internal/stats"
)

// Scratch arenas for the Monte-Carlo draw kernels. Each worker of a
// sampling loop owns one sampleArena; a steady-state draw (sample k
// addresses, sort them, count blocks) touches only arena memory and the
// output cell it was assigned, performing zero heap allocations. Arenas
// are recycled through a sync.Pool so repeated experiments reuse the
// high-water-mark buffers instead of regrowing them.

type sampleArena struct {
	buf    []uint32 // sampled addresses; sorted in place
	tmp    []uint32 // radix-sort scratch
	counts []int    // per-prefix block counts
	table  idxTable // index set / displacement map for the samplers
}

var arenaPool = sync.Pool{New: func() any { return new(sampleArena) }}

func getArena() *sampleArena  { return arenaPool.Get().(*sampleArena) }
func putArena(a *sampleArena) { arenaPool.Put(a) }

func (a *sampleArena) ensure(k, prefixes int) {
	if cap(a.buf) < k {
		a.buf = make([]uint32, k)
		a.tmp = make([]uint32, k)
	}
	if len(a.counts) < prefixes {
		a.counts = make([]int, prefixes)
	}
}

// sampleSorted draws a uniform k-subset of addrs (which must be sorted
// and duplicate-free) into the arena and returns it sorted ascending. The
// returned slice aliases arena memory and is valid until the next call.
// When k == len(addrs) it returns addrs itself and consumes no
// randomness, mirroring Set.Sample's full-set fast path.
//
// The generator stream consumed here is bit-for-bit the stream the
// original map/permutation implementation consumed (same branch point,
// same Intn sequence), so seeded experiment outputs are unchanged.
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
	a.ensure(k, 0)
	buf := a.buf[:0]
	if k <= n/16 {
		// Floyd's subset sampling over indices. The hash-set replaces the
		// map[int]struct{} of the original; membership decisions (and
		// therefore the Intn stream) are identical.
		t := &a.table
		t.reset(k)
		for i := n - k; i < n; i++ {
			j := rng.Intn(i + 1)
			if !t.insert(uint32(j)) {
				// j already chosen: Floyd's fallback picks i, which can
				// never be a duplicate (all prior picks are < i).
				j = i
				t.insert(uint32(j))
			}
			buf = append(buf, addrs[j])
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
			buf = append(buf, addrs[vj])
		}
	}
	// Distinct indices of a sorted, deduplicated slice: sorting the
	// values yields the canonical Set order with no dedup pass needed.
	sortUint32s(buf, a.tmp)
	return buf
}

// sampleIndicesSorted draws a uniform k-subset of the ranks [0, n) into
// the arena and returns it sorted ascending. It consumes bit-for-bit
// the Intn stream sampleSorted consumes for the same (n, k) — the only
// difference is that it records the chosen rank instead of addrs[rank].
// Set.Sample maps the ranks to members with a container select walk, so
// it returns exactly the subset sampleSorted draws from the materialized
// membership under the same seed.
func (a *sampleArena) sampleIndicesSorted(n, k int, rng *stats.RNG) []uint32 {
	if k < 0 || k > n {
		panic("ipset: sample size out of range")
	}
	if k == 0 {
		return nil
	}
	a.ensure(k, 0)
	buf := a.buf[:0]
	if k <= n/16 {
		t := &a.table
		t.reset(k)
		for i := n - k; i < n; i++ {
			j := rng.Intn(i + 1)
			if !t.insert(uint32(j)) {
				j = i
				t.insert(uint32(j))
			}
			buf = append(buf, uint32(j))
		}
	} else {
		t := &a.table
		t.reset(k)
		for i := 0; i < k; i++ {
			j := uint32(i + rng.Intn(n-i))
			vi, vj := t.get(uint32(i), uint32(i)), t.get(j, j)
			t.put(j, vi)
			buf = append(buf, vj)
		}
	}
	sortUint32s(buf, a.tmp)
	return buf
}

// idxTable is an epoch-stamped open-addressing hash table over sample
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

// insert adds key to the set and reports whether it was absent.
func (t *idxTable) insert(key uint32) bool {
	h := t.slot(key)
	for {
		if t.epoch[h] != t.cur {
			t.epoch[h] = t.cur
			t.keys[h] = key
			return true
		}
		if t.keys[h] == key {
			return false
		}
		h = (h + 1) & t.mask
	}
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
