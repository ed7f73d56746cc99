package obs

import (
	"sync/atomic"
	"time"
)

// Rolling windows. A process-lifetime counter answers "how many ever";
// an operator deciding whether the daemon is healthy *now* needs "how
// many in the last minute". WindowedCounter and WindowedHistogram keep
// a ring of fixed sub-windows (subWindow wide, numSub slots ≈ one hour
// plus the slot being filled) and rotate lazily: the writer that first
// touches a slot whose epoch is stale claims it with one CAS and
// resets it. There is no rotation goroutine, no timer, and the write
// path stays allocation-free — an Add is the same few atomic operations
// as a plain Counter plus one epoch check.
//
// The rotation is deliberately approximate: a writer racing the slot
// reset at a sub-window boundary can lose its increment, and a reader
// summing "the last minute" sees whole 10-second sub-windows, so the
// window edge is quantized. Both errors are bounded (a handful of
// events per rotation; ±one sub-window of horizon) and are the price of
// a lock-free hot path; SLO burn rates integrate over minutes and do
// not care.

// subWindow is the rotation quantum; every exposed window is a whole
// number of sub-windows.
const subWindow = 10 * time.Second

// numSub retains one hour of sub-windows plus the one being filled.
const numSub = 361

// Windows are the horizons the exposition formats report.
var Windows = []struct {
	Name string
	D    time.Duration
}{
	{"1m", time.Minute},
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
}

// winEpoch returns the sub-window index of t since the epoch.
func winEpoch(t time.Time) int64 { return t.UnixNano() / int64(subWindow) }

// subsFor converts a window to a sub-window count (minimum 1, capped at
// the retained hour).
func subsFor(window time.Duration) int64 {
	k := int64(window / subWindow)
	if k < 1 {
		k = 1
	}
	if k > numSub-1 {
		k = numSub - 1
	}
	return k
}

// winCell is one sub-window of a WindowedCounter.
type winCell struct {
	epoch atomic.Int64
	n     atomic.Uint64
}

// ensure claims the cell for epoch e, resetting a stale one. The CAS
// winner resets; a concurrent Add that slips between the CAS and the
// reset can be lost — bounded, documented, and irrelevant at SLO
// integration scales.
func (c *winCell) ensure(e int64) {
	old := c.epoch.Load()
	if old == e {
		return
	}
	if old < e && c.epoch.CompareAndSwap(old, e) {
		c.n.Store(0)
	}
}

// WindowedCounter counts events per sub-window so rates can be read
// over the last 1m/5m/1h instead of process lifetime. The zero value is
// NOT usable; construct with NewWindowedCounter or Registry.
type WindowedCounter struct {
	cells [numSub]winCell
	now   func() time.Time
}

// NewWindowedCounter builds a windowed counter.
func NewWindowedCounter() *WindowedCounter {
	return &WindowedCounter{now: time.Now}
}

// Clock injects a time source (tests); nil restores time.Now.
func (w *WindowedCounter) Clock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	w.now = now
}

// IncAt adds one to the sub-window of t. Hot paths pass a timestamp they
// already hold, saving the clock read (a DNSBL worker stamps each packet
// once and feeds every windowed metric from it).
func (w *WindowedCounter) IncAt(t time.Time) { w.AddAt(t, 1) }

// AddAt adds n to the sub-window containing t.
func (w *WindowedCounter) AddAt(t time.Time, n uint64) {
	e := winEpoch(t)
	c := &w.cells[e%numSub]
	c.ensure(e)
	c.n.Add(n)
}

// Total sums the counter over the trailing window (quantized to whole
// sub-windows, including the one being filled).
func (w *WindowedCounter) Total(window time.Duration) uint64 {
	cur := winEpoch(w.now())
	k := subsFor(window)
	total := uint64(0)
	for e := cur - k + 1; e <= cur; e++ {
		c := &w.cells[((e%numSub)+numSub)%numSub]
		if c.epoch.Load() == e {
			total += c.n.Load()
		}
	}
	return total
}

// Rate is Total over the window expressed per second.
func (w *WindowedCounter) Rate(window time.Duration) float64 {
	k := subsFor(window)
	return float64(w.Total(window)) / (time.Duration(k) * subWindow).Seconds()
}

// histCell is one sub-window of a WindowedHistogram.
type histCell struct {
	epoch   atomic.Int64
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

func (c *histCell) ensure(e int64) {
	old := c.epoch.Load()
	if old == e {
		return
	}
	if old < e && c.epoch.CompareAndSwap(old, e) {
		c.count.Store(0)
		c.sum.Store(0)
		for i := range c.buckets {
			c.buckets[i].Store(0)
		}
	}
}

// WindowedHistogram is a log₂ latency histogram per sub-window, so
// p50/p95/p99 can be read over the last 1m/5m/1h. Observe costs the
// same class of atomics as Histogram.Observe plus one epoch check. The
// zero value is NOT usable; construct with NewWindowedHistogram or
// Registry.
type WindowedHistogram struct {
	cells [numSub]histCell
	now   func() time.Time
}

// NewWindowedHistogram builds a windowed histogram.
func NewWindowedHistogram() *WindowedHistogram {
	return &WindowedHistogram{now: time.Now}
}

// Clock injects a time source (tests); nil restores time.Now.
func (w *WindowedHistogram) Clock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	w.now = now
}

// ObserveAt records one duration into the sub-window of t. Hot paths pass
// a timestamp they already hold, saving the clock read.
func (w *WindowedHistogram) ObserveAt(t time.Time, d time.Duration) {
	e := winEpoch(t)
	c := &w.cells[e%numSub]
	c.ensure(e)
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	i := bucketFor(ns)
	c.buckets[i].Add(1)
	c.count.Add(1)
	c.sum.Add(ns)
}

// gather sums the trailing window's cells into one bucket array.
func (w *WindowedHistogram) gather(window time.Duration) (counts [histBuckets]uint64, count, sum uint64) {
	cur := winEpoch(w.now())
	k := subsFor(window)
	for e := cur - k + 1; e <= cur; e++ {
		c := &w.cells[((e%numSub)+numSub)%numSub]
		if c.epoch.Load() != e {
			continue
		}
		count += c.count.Load()
		sum += c.sum.Load()
		for i := range counts {
			counts[i] += c.buckets[i].Load()
		}
	}
	return counts, count, sum
}

// Count returns the observations in the trailing window.
func (w *WindowedHistogram) Count(window time.Duration) uint64 {
	_, count, _ := w.gather(window)
	return count
}

// Snapshot summarizes the trailing window: count, sum, p50/p95/p99.
func (w *WindowedHistogram) Snapshot(window time.Duration) HistSnapshot {
	counts, count, sum := w.gather(window)
	return HistSnapshot{
		Count: count,
		Sum:   time.Duration(sum),
		P50:   quantileOf(&counts, 0.50),
		P95:   quantileOf(&counts, 0.95),
		P99:   quantileOf(&counts, 0.99),
	}
}

// WindowTotal is the counting view an SLO reads: events over a trailing
// window. *WindowedCounter implements it directly; a WindowedHistogram
// adapts through AsTotal, so a hot path that already observes a latency
// per event does not pay a second windowed increment just to feed the
// SLO denominator.
type WindowTotal interface {
	Total(window time.Duration) uint64
}

// histTotal adapts a WindowedHistogram's observation count to WindowTotal.
type histTotal struct{ w *WindowedHistogram }

func (h histTotal) Total(window time.Duration) uint64 { return h.w.Count(window) }

// AsTotal returns the histogram's per-window observation count as a
// WindowTotal, for use as an SLO numerator or denominator.
func (w *WindowedHistogram) AsTotal() WindowTotal { return histTotal{w} }

// burnWindows are every SLO's two burn-rate horizons, short then long:
// the 5m and 1h entries of Windows.
var burnWindows = Windows[1:]

// SLO is a service-level objective over a good/total counter pair: a
// target success ratio plus the standard two-window burn rate. A burn
// rate of 1.0 means the error budget (1 - target) is being consumed
// exactly as fast as it accrues; above 1 the budget is burning down.
// The Google SRE workbook's multi-window alert is "short AND long
// window both burning hot"; the expositions derive a burn-rate series
// for each of burnWindows (5m and 1h) for watchdog rules to read.
type SLO struct {
	// Name is the metric base name the expositions render.
	Name string
	// Help is the exposition HELP text.
	Help string
	// Target is the objective success ratio in (0, 1), e.g. 0.999.
	Target float64
	// Good and Total are the windowed event counts; Good counts
	// successes, Total counts everything. A hot path that would rather
	// pay one increment per failure than one per success may set Bad
	// instead of Good — failures counted directly. Exactly one of Good
	// or Bad should be set.
	Good, Bad, Total WindowTotal
}

// BadRatio returns the failure ratio over the window (0 when idle).
func (s *SLO) BadRatio(window time.Duration) float64 {
	total := s.Total.Total(window)
	if total == 0 {
		return 0
	}
	var bad uint64
	if s.Bad != nil {
		bad = s.Bad.Total(window)
	} else {
		good := s.Good.Total(window)
		if good > total {
			good = total // windows rotate independently; clamp
		}
		bad = total - good
	}
	if bad > total {
		bad = total
	}
	return float64(bad) / float64(total)
}

// BurnRate returns the error-budget burn rate over the window: the
// failure ratio divided by the budget (1 - Target).
func (s *SLO) BurnRate(window time.Duration) float64 {
	budget := 1 - s.Target
	if budget <= 0 {
		budget = 1e-9 // a 100% target has no budget; any failure burns hard
	}
	return s.BadRatio(window) / budget
}
