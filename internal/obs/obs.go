// Package obs is the repository's zero-external-dependency
// observability layer: an atomic metrics registry (counters, gauges,
// log₂-bucketed latency histograms), Prometheus-text and JSON
// exposition handlers, slog-based per-component structured logging, and
// a lightweight span tracer for stage timings.
//
// Everything on the hot path is allocation-free: a Counter is one
// atomic word, a Histogram.Observe is two atomic adds plus one indexed
// atomic add, and neither takes a lock. Registration (the cold path)
// uses get-or-create semantics keyed by name+labels, so independent
// packages can share a metric by naming it identically in the Default
// registry, while components that need isolated counters (one DNSBL
// server among several in a test binary) hold their own Registry.
//
// Naming follows the Prometheus conventions: `unclean_<component>_
// <what>_<unit>`, counters suffixed `_total`, durations in `_seconds`.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; use by pointer only.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is usable;
// use by pointer only.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of a Histogram. Bucket 0 holds
// zero-duration observations; bucket i (1 ≤ i < histBuckets-1) holds
// durations in [2^(i-1), 2^i) nanoseconds; the last bucket holds
// everything from 2^(histBuckets-2) ns (≈ 4.6 minutes) up.
const histBuckets = 40

// Histogram is a log₂-bucketed duration histogram. Observe is
// allocation-free and lock-free; quantile snapshots are computed at
// scrape time by linear interpolation inside the matched power-of-two
// bucket. The zero value is usable; use by pointer only.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// bucketFor maps a nanosecond duration to its bucket index.
func bucketFor(ns uint64) int {
	i := bits.Len64(ns)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[bucketFor(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// bucketUpper returns the exclusive upper bound of bucket i in
// nanoseconds (the last bucket has no bound and returns 0).
func bucketUpper(i int) uint64 {
	if i >= histBuckets-1 {
		return 0
	}
	return uint64(1) << uint(i)
}

// NoData is the documented sentinel Quantile returns for a histogram
// (or window) holding no observations. It is negative, so it can never
// be confused with a real duration, and callers that render quantiles
// must check for it rather than printing garbage.
const NoData = time.Duration(-1)

// Quantile returns the q-quantile (clamped to [0, 1]) of the observed
// durations, interpolated within the matched bucket. With no
// observations it returns the NoData sentinel. Observations that landed
// in the unbounded top bucket report that bucket's floor (≈4.6
// minutes) — the histogram cannot know how far beyond it they ran.
func (h *Histogram) Quantile(q float64) time.Duration {
	var counts [histBuckets]uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	return quantileOf(&counts, q)
}

// quantileOf is the shared quantile core over one bucket array; both
// Histogram and WindowedHistogram resolve their quantiles through it.
func quantileOf(counts *[histBuckets]uint64, q float64) time.Duration {
	total := uint64(0)
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return NoData
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(i-1))
			hi := 2 * lo
			if i == histBuckets-1 {
				return time.Duration(lo) // unbounded tail: report its floor
			}
			frac := (target - cum) / float64(c)
			return time.Duration(lo + (hi-lo)*frac)
		}
		cum = next
	}
	return time.Duration(uint64(1) << uint(histBuckets-2))
}

// HistSnapshot is a point-in-time quantile summary of a Histogram.
// With zero observations the quantile fields hold the NoData sentinel.
type HistSnapshot struct {
	Count         uint64
	Sum           time.Duration
	P50, P95, P99 time.Duration
}

// Snapshot summarizes the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}
