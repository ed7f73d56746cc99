package scandetect

import (
	"fmt"
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

type hourBucket struct {
	src  netaddr.Addr
	hour int64
}

type bucketStats struct {
	dsts map[netaddr.Addr]Outcome
}

// Threshold is the hourly fan-out detector as a fold accumulator.
// Consume buckets records by source and window. EndDay evaluates and
// drops the buckets of a finished day once no later record can fall in
// them, so the buckets never outlive the day. Merge folds in another
// accumulator's scanners and open buckets, and Scanners returns the
// flagged sources. DetectThreshold is one Consume and Scanners over a
// slice.
type Threshold struct {
	cfg     ThresholdConfig
	buckets map[hourBucket]*bucketStats
	flagged *ipset.Builder
}

// NewThreshold returns an empty accumulator.
func NewThreshold(cfg ThresholdConfig) (*Threshold, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Threshold{cfg: cfg, buckets: make(map[hourBucket]*bucketStats), flagged: ipset.NewBuilder(0)}, nil
}

// Consume adds records to their (source, window) buckets. Runs of
// records in one bucket, as generators emit a source's flows, look the
// bucket up once.
func (t *Threshold) Consume(records []netflow.Record) {
	var b *bucketStats
	var key hourBucket
	for i := range records {
		r := &records[i]
		k := hourBucket{src: r.SrcAddr, hour: int64(r.First) / int64(t.cfg.Window)}
		if b == nil || k != key {
			key = k
			if b = t.buckets[key]; b == nil {
				b = &bucketStats{dsts: make(map[netaddr.Addr]Outcome)}
				t.buckets[key] = b
			}
		}
		// A destination that ever succeeded in the window stays a success.
		if prev, seen := b.dsts[r.DstAddr]; !seen || prev == Failure {
			b.dsts[r.DstAddr] = Classify(r)
		}
	}
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
// its scanners, and its open buckets destination by destination, a
// success in either staying a success. other must not be used again.
func (t *Threshold) Merge(other *Threshold) {
	if t.cfg != other.cfg {
		panic("scandetect: merging threshold detectors of different configurations")
	}
	t.flagged.AddSet(other.flagged.Build())
	for key, ob := range other.buckets {
		b := t.buckets[key]
		if b == nil {
			t.buckets[key] = ob
			continue
		}
		for dst, o := range ob.dsts {
			if prev, seen := b.dsts[dst]; !seen || prev == Failure {
				b.dsts[dst] = o
			}
		}
	}
	other.buckets = nil
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
	clear(t.buckets)
	t.flagged.Build()
}

// flush flags the sources of the open buckets that pass the thresholds
// and drops every open bucket.
func (t *Threshold) flush() {
	for key, b := range t.buckets {
		if len(b.dsts) < t.cfg.MinTargets {
			continue
		}
		failures := 0
		for _, o := range b.dsts {
			if o == Failure {
				failures++
			}
		}
		if float64(failures) >= t.cfg.MinFailureRatio*float64(len(b.dsts)) {
			t.flagged.Add(key.src)
		}
	}
	clear(t.buckets)
}

// DetectThreshold runs the hourly fan-out detector over a record slice and
// returns the flagged scanners.
func DetectThreshold(records []netflow.Record, cfg ThresholdConfig) (ipset.Set, error) {
	t, err := NewThreshold(cfg)
	if err != nil {
		return ipset.Set{}, err
	}
	t.Consume(records)
	return t.Scanners(), nil
}
