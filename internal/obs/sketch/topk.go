package sketch

import (
	"sort"
	"sync/atomic"
)

// Entry is one heavy hitter reported by a TopK summary. Counts are
// space-saving overestimates: Count-Err ≤ true ≤ Count.
type Entry struct {
	Key   uint32 `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err"`
}

// TopK is a space-saving heavy-hitters summary over k counters: any
// key whose true frequency exceeds N/k is guaranteed present, and
// every reported count overestimates the truth by at most the error
// recorded alongside it (the count the evicted predecessor carried).
//
// Like the other sketches it is single-writer with atomic cells, so a
// concurrent scrape sees approximately current entries without locks;
// a reader racing an eviction may observe the incoming key with the
// outgoing key's count, which is exactly the overestimate the
// structure already promises.
//
// Updates never allocate: the entry table and the writer's open-
// addressing index are sized at construction.
type TopK struct {
	k      int
	keys   []atomic.Uint32
	counts []atomic.Uint64
	errs   []atomic.Uint64
	n      atomic.Int32 // entries in use (≤ k)

	// idx maps key → entry slot for the writer only (readers never
	// touch it, so plain ints are fine). Open addressing over a table
	// 4× the entry count; evictions leave tombstones that a periodic
	// O(k) rebuild sweeps out, keeping probes short and amortized O(1).
	idx     []int32
	idxMask uint32
	tombs   int
}

const (
	idxEmpty = -1
	idxTomb  = -2
	// defaultTopK is the entry count used when NewTopK is given ≤ 0.
	defaultTopK = 32
)

// NewTopK builds a summary tracking the k most frequent keys
// (0 means 32, clamped to 8..4096).
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = defaultTopK
	}
	if k < 8 {
		k = 8
	}
	if k > 4096 {
		k = 4096
	}
	// Index table: next power of two ≥ 4k.
	sz := 8
	for sz < 4*k {
		sz <<= 1
	}
	t := &TopK{
		k:       k,
		keys:    make([]atomic.Uint32, k),
		counts:  make([]atomic.Uint64, k),
		errs:    make([]atomic.Uint64, k),
		idx:     make([]int32, sz),
		idxMask: uint32(sz - 1),
	}
	for i := range t.idx {
		t.idx[i] = idxEmpty
	}
	return t
}

// find returns the entry slot for key, or -1.
func (t *TopK) find(key uint32) int32 {
	i := uint32(mix64(uint64(key)^topkSeed)) & t.idxMask
	for {
		switch e := t.idx[i]; e {
		case idxEmpty:
			return -1
		case idxTomb:
			// keep probing
		default:
			if t.keys[e].Load() == key {
				return e
			}
		}
		i = (i + 1) & t.idxMask
	}
}

// insert records key → slot in the index, reusing the first tombstone
// on its probe path.
func (t *TopK) insert(key uint32, slot int32) {
	i := uint32(mix64(uint64(key)^topkSeed)) & t.idxMask
	for {
		if e := t.idx[i]; e == idxEmpty || e == idxTomb {
			if e == idxTomb {
				t.tombs--
			}
			t.idx[i] = slot
			return
		}
		i = (i + 1) & t.idxMask
	}
}

// remove tombstones key's index slot and rebuilds the table once
// tombstones pile up (amortized O(1) per eviction).
func (t *TopK) remove(key uint32) {
	i := uint32(mix64(uint64(key)^topkSeed)) & t.idxMask
	for {
		e := t.idx[i]
		if e == idxEmpty {
			return // not present (shouldn't happen; harmless)
		}
		if e != idxTomb && t.keys[e].Load() == key {
			t.idx[i] = idxTomb
			t.tombs++
			if t.tombs >= t.k {
				t.rebuild()
			}
			return
		}
		i = (i + 1) & t.idxMask
	}
}

// rebuild rewrites the index from the live entries, dropping all
// tombstones.
func (t *TopK) rebuild() {
	for i := range t.idx {
		t.idx[i] = idxEmpty
	}
	t.tombs = 0
	n := int(t.n.Load())
	for s := 0; s < n; s++ {
		t.insert(t.keys[s].Load(), int32(s))
	}
}

// Inc is Add(key, 1).
func (t *TopK) Inc(key uint32) { t.Add(key, 1) }

// Add records delta occurrences of key. Monitored keys pay one index
// probe and one atomic add; an unmonitored key evicts the current
// minimum, inheriting its count as error (the space-saving rule). No
// allocation on any path.
func (t *TopK) Add(key uint32, delta uint64) {
	if e := t.find(key); e >= 0 {
		t.counts[e].Add(delta)
		return
	}
	n := int(t.n.Load())
	if n < t.k {
		t.keys[n].Store(key)
		t.counts[n].Store(delta)
		t.errs[n].Store(0)
		t.insert(key, int32(n))
		t.n.Store(int32(n + 1))
		return
	}
	// Evict the minimum-count entry.
	min, minv := 0, t.counts[0].Load()
	for i := 1; i < t.k; i++ {
		if v := t.counts[i].Load(); v < minv {
			min, minv = i, v
		}
	}
	t.remove(t.keys[min].Load())
	t.keys[min].Store(key)
	t.errs[min].Store(minv)
	t.counts[min].Store(minv + delta)
	t.insert(key, int32(min))
}

// Min returns the smallest monitored count, or 0 while the table has
// free slots. Any key not in the summary has true count ≤ Min().
func (t *TopK) Min() uint64 {
	n := int(t.n.Load())
	if n < t.k {
		return 0
	}
	minv := t.counts[0].Load()
	for i := 1; i < n; i++ {
		if v := t.counts[i].Load(); v < minv {
			minv = v
		}
	}
	return minv
}

// Entries snapshots the monitored set, sorted by descending count.
// It allocates (scrape path, not serve path).
func (t *TopK) Entries() []Entry {
	n := int(t.n.Load())
	if n > t.k {
		n = t.k
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Entry{
			Key:   t.keys[i].Load(),
			Count: t.counts[i].Load(),
			Err:   t.errs[i].Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// MergeTopK combines per-shard summaries into one ranked list of at
// most k entries. For a key monitored by a shard, that shard
// contributes its (count, err) pair; for a key a shard never monitored
// its true count there is at most that shard's Min(), so Min() is
// added to both the count and the error. The merged entries therefore
// keep the space-saving invariant Count-Err ≤ true ≤ Count, and the
// total error stays ≤ ΣNᵢ/kᵢ — the bound a single summary over the
// concatenated stream would give.
func MergeTopK(k int, sketches ...*TopK) []Entry {
	if k <= 0 {
		k = defaultTopK
	}
	type side struct {
		entries map[uint32]Entry
		min     uint64
	}
	sides := make([]side, 0, len(sketches))
	keys := make(map[uint32]struct{})
	for _, s := range sketches {
		if s == nil {
			continue
		}
		es := s.Entries()
		m := make(map[uint32]Entry, len(es))
		for _, e := range es {
			m[e.Key] = e
			keys[e.Key] = struct{}{}
		}
		sides = append(sides, side{entries: m, min: s.Min()})
	}
	out := make([]Entry, 0, len(keys))
	for key := range keys {
		var cnt, errb uint64
		for _, sd := range sides {
			if e, ok := sd.entries[key]; ok {
				cnt += e.Count
				errb += e.Err
			} else {
				cnt += sd.min
				errb += sd.min
			}
		}
		out = append(out, Entry{Key: key, Count: cnt, Err: errb})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
