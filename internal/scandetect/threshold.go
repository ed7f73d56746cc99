package scandetect

import (
	"fmt"
	"slices"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

// ThresholdConfig parameterizes the hourly fan-out detector: a source is a
// scanner if, within any single clock hour, it contacts at least MinTargets
// distinct destinations of which at least MinFailureRatio fail.
type ThresholdConfig struct {
	// Window is the bucketing interval (the paper's detector is
	// "calibrated to identify scans that take place over an hour").
	Window time.Duration
	// MinTargets is the distinct-destination fan-out threshold per window.
	MinTargets int
	// MinFailureRatio is the minimum fraction of failed contacts per
	// window for the fan-out to count as scanning rather than a busy
	// client.
	MinFailureRatio float64
}

// DefaultThresholdConfig returns the hour/32-target/0.5-failure settings
// used for the observed scan reports. A scanner probing fewer than ~30
// addresses per day never trips it — the slow-scanner blind spot the
// paper observes in its unknown population (§6.2).
func DefaultThresholdConfig() ThresholdConfig {
	return ThresholdConfig{Window: time.Hour, MinTargets: 32, MinFailureRatio: 0.5}
}

func (c ThresholdConfig) validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("scandetect: window must be positive")
	}
	if c.MinTargets < 2 {
		return fmt.Errorf("scandetect: MinTargets must be at least 2")
	}
	if c.MinFailureRatio < 0 || c.MinFailureRatio > 1 {
		return fmt.Errorf("scandetect: MinFailureRatio must be in [0,1]")
	}
	return nil
}

// bucket is one open (source, window) bucket. The window index is a
// full int64: a 1 ns window over 2006 needs 61 bits. next chains the
// buckets that share an index key (below).
type bucket struct {
	src  netaddr.Addr
	next uint32
	win  int64
}

// noBucket ends a chain of buckets.
const noBucket = ^uint32(0)

// indexKey is a bucket's key in Threshold.index: its source and the low
// 32 bits of its window. Only windows 2^32 apart share a key, and their
// buckets are chained.
func indexKey(src netaddr.Addr, win int64) uint64 { return uint64(src)<<32 | uint64(uint32(win)) }

// An entry is one consumed record, packed as its bucket number, its
// destination and its outcome, from the high bits down. Success is 0, so
// a destination's successes sort before its failures.
const (
	dstShift    = 1
	bucketShift = 33
	maxBuckets  = 1 << (64 - bucketShift)
)

// Threshold is the hourly fan-out detector as a fold accumulator.
// Consume numbers each (source, window) bucket on first sight and
// appends one entry per record. EndDay evaluates and drops the buckets
// of a finished day once no later record can fall in them, so the
// entries never outlive the day. Merge folds in another accumulator's
// scanners and open buckets, and Scanners returns the flagged sources.
// The state is flat and pointer-free, and its slices are reused from
// one evaluation to the next, so nothing is allocated per bucket.
type Threshold struct {
	cfg     ThresholdConfig
	index   map[uint64]uint32 // indexKey -> the last bucket numbered with it
	buckets []bucket          // open buckets by number
	entries []uint64          // one per consumed record, in arrival order
	grouped []uint64          // flush's buffer: the entries grouped by bucket
	offsets []int             // flush's buffer: per-bucket counts, then offsets
	flagged *ipset.Builder
}

// NewThreshold returns an empty accumulator.
func NewThreshold(cfg ThresholdConfig) (*Threshold, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Threshold{cfg: cfg, index: make(map[uint64]uint32), flagged: ipset.NewBuilder(0)}, nil
}

// Consume appends one entry per record to its (source, window) bucket.
// Runs of records in one bucket, as generators emit a source's flows,
// look the bucket up once.
func (t *Threshold) Consume(records []netflow.Record) {
	w := int64(t.cfg.Window)
	n := len(t.entries)
	t.entries = slices.Grow(t.entries, len(records))[:n+len(records)]
	out := t.entries[n:]
	var src netaddr.Addr
	var win int64
	var base uint64
	for i := range records {
		r := &records[i]
		if s, x := r.SrcAddr, int64(r.First)/w; i == 0 || s != src || x != win {
			src, win = s, x
			base = t.number(src, win) << bucketShift
		}
		out[i] = base | uint64(r.DstAddr)<<dstShift | uint64(Classify(r))
	}
}

// number returns the number of the bucket (src, win), numbering it if
// it is new.
func (t *Threshold) number(src netaddr.Addr, win int64) uint64 {
	key := indexKey(src, win)
	first, ok := t.index[key]
	if !ok {
		first = noBucket
	}
	for b := first; b != noBucket; b = t.buckets[b].next {
		if t.buckets[b].win == win {
			return uint64(b)
		}
	}
	if len(t.buckets) == maxBuckets {
		panic("scandetect: too many open buckets")
	}
	b := uint32(len(t.buckets))
	t.buckets = append(t.buckets, bucket{src: src, next: first, win: win})
	t.index[key] = b
	return uint64(b)
}

// EndDay is told that every record consumed since the previous EndDay
// has its First inside day. When day starts and ends on window
// boundaries, as a UTC day does for the hourly window, no record
// consumed elsewhere shares a bucket with these, so they are evaluated
// and dropped. Otherwise they stay open for Merge and Scanners.
func (t *Threshold) EndDay(day time.Time) {
	w := int64(t.cfg.Window)
	if day.UnixNano()%w == 0 && int64(24*time.Hour)%w == 0 {
		t.flush()
	}
}

// Merge folds other, which must have the same configuration, into t:
// its scanners, and its open buckets, renumbered into t's, entry by
// entry. other must not be used again.
func (t *Threshold) Merge(other *Threshold) {
	if t.cfg != other.cfg {
		panic("scandetect: merging threshold detectors of different configurations")
	}
	t.flagged.AddSet(other.flagged.Build())
	renumber := make([]uint64, len(other.buckets))
	for b, k := range other.buckets {
		renumber[b] = t.number(k.src, k.win) << bucketShift
	}
	const low = 1<<bucketShift - 1
	for _, e := range other.entries {
		t.entries = append(t.entries, renumber[e>>bucketShift]|e&low)
	}
	*other = Threshold{}
}

// Scanners evaluates the open buckets and returns every source flagged
// so far.
func (t *Threshold) Scanners() ipset.Set {
	t.flush()
	s := t.flagged.Build()
	t.flagged.AddSet(s)
	return s
}

// Reset drops everything consumed so far.
func (t *Threshold) Reset() {
	t.drop()
	t.flagged.Build()
}

// flush flags the sources of the open buckets that pass the thresholds
// and drops every open bucket. A counting pass groups the entries by
// bucket, leaving out each bucket with fewer entries than MinTargets,
// which cannot reach MinTargets destinations. Each remaining bucket is
// sorted, which puts a destination's entries together with any success
// first, and scanned once for its distinct destinations and those that
// only failed.
func (t *Threshold) flush() {
	const skip = -1
	off := slices.Grow(t.offsets[:0], len(t.buckets))[:len(t.buckets)]
	clear(off)
	for _, e := range t.entries {
		off[e>>bucketShift]++
	}
	total := 0
	for b, c := range off {
		if c < t.cfg.MinTargets {
			off[b] = skip
			continue
		}
		off[b] = total
		total += c
	}
	grouped := slices.Grow(t.grouped[:0], total)[:total]
	for _, e := range t.entries {
		if o := &off[e>>bucketShift]; *o != skip {
			grouped[*o] = e
			*o++
		}
	}
	// Each kept bucket's offset now ends its group.
	for start := 0; start < total; {
		b := grouped[start] >> bucketShift
		end := off[b]
		if t.scanning(grouped[start:end]) {
			t.flagged.Add(t.buckets[b].src)
		}
		start = end
	}
	t.grouped, t.offsets = grouped[:0], off[:0]
	t.drop()
}

// scanning sorts one bucket's entries and reports whether they pass the
// thresholds.
func (t *Threshold) scanning(bucket []uint64) bool {
	slices.Sort(bucket)
	targets, failures := 0, 0
	prev := ^uint64(0) // no entry shifted right equals it
	for _, e := range bucket {
		if d := e >> dstShift; d != prev {
			prev = d
			targets++
			failures += int(e & 1)
		}
	}
	return targets >= t.cfg.MinTargets && float64(failures) >= t.cfg.MinFailureRatio*float64(targets)
}

// drop forgets the open buckets, keeping the space for the next ones.
func (t *Threshold) drop() {
	clear(t.index)
	t.buckets, t.entries = t.buckets[:0], t.entries[:0]
}
