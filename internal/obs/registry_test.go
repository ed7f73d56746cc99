package obs

import (
	"sync"
	"testing"
	"time"
)

func TestGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "ignored on second lookup")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	la := r.Counter("x_total", "h", "zone", "a")
	lb := r.Counter("x_total", "h", "zone", "b")
	if la == lb || la == a {
		t.Fatal("distinct label sets must be distinct series")
	}
	la.Add(3)
	if r.Counter("x_total", "h", "zone", "a").Value() != 3 {
		t.Fatal("labeled lookup did not return the live counter")
	}
}

// A metric kind collision is a programmer error, but observability must
// never take the daemon down: the convenience accessors log it and hand
// back a live, detached metric, while Register surfaces the error.
func TestKindMismatchErrorsNotPanics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("m", "h")
	c.Add(2)

	g := r.Gauge("m", "h") // collision: same series name, different kind
	if g == nil {
		t.Fatal("collision returned nil gauge")
	}
	g.Set(9) // must be usable
	if _, err := r.Register(KindGauge, "m", "h"); err == nil {
		t.Fatal("Register did not report the kind collision")
	}
	// The registry still holds exactly the original counter.
	ms := r.Metrics()
	if len(ms) != 1 || ms[0].Kind != KindCounter || ms[0].c.Value() != 2 {
		t.Fatalf("registry corrupted by collision: %+v", ms)
	}
}

func TestOddLabelsErrorNotPanic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("m", "h", "k") // odd list: detached but usable
	c.Inc()
	if _, err := r.Register(KindCounter, "m2", "h", "k"); err == nil {
		t.Fatal("Register did not report the odd label list")
	}
	if _, err := r.Register(KindCounter, "", "h"); err == nil {
		t.Fatal("Register did not report the empty name")
	}
	if len(r.Metrics()) != 0 {
		t.Fatal("misuse registered a series")
	}
}

// The same name with the same label pairs in a different order must
// resolve to one series, not silently split into two.
func TestLabelOrderCanonicalized(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m_total", "h", "zone", "z1", "dim", "bot")
	b := r.Counter("m_total", "h", "dim", "bot", "zone", "z1")
	if a != b {
		t.Fatal("label order split the series")
	}
	a.Add(5)
	if b.Value() != 5 {
		t.Fatal("reordered lookup returned a different counter")
	}
	if got := len(r.Metrics()); got != 1 {
		t.Fatalf("registry holds %d series, want 1", got)
	}
	// Rendered form is canonical (sorted by key) regardless of
	// registration order.
	if fn := r.Metrics()[0].FullName(); fn != `m_total{dim="bot",zone="z1"}` {
		t.Fatalf("FullName = %s, want sorted labels", fn)
	}
	// Different values under reordered keys stay distinct.
	c := r.Counter("m_total", "h", "dim", "scan", "zone", "z1")
	if c == a {
		t.Fatal("distinct label values collapsed")
	}
}

// Concurrent get-or-create of the same and different series must be
// race-free and converge on one metric per series (hammered under
// -race in CI).
func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	var wg sync.WaitGroup
	counters := make([]*Counter, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Same series from every goroutine, labels in varying order.
				var c *Counter
				if w%2 == 0 {
					c = r.Counter("hammer_total", "h", "a", "1", "b", "2")
				} else {
					c = r.Counter("hammer_total", "h", "b", "2", "a", "1")
				}
				c.Inc()
				counters[w] = c
				// And a per-worker series, plus deliberate collisions.
				r.Gauge("hammer_gauge", "h", "w", string(rune('a'+w))).Set(int64(i))
				// Kind collision on the exact series: must not panic.
				r.Gauge("hammer_total", "h", "a", "1", "b", "2")
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if counters[w] != counters[0] {
			t.Fatalf("worker %d resolved a different counter", w)
		}
	}
	if got := counters[0].Value(); got != workers*200 {
		t.Fatalf("hammered counter = %d, want %d", got, workers*200)
	}
	if got := len(r.Metrics()); got != 1+workers {
		t.Fatalf("registry holds %d series, want %d", got, 1+workers)
	}
}

// Registering the runtime gauges twice on one registry installs one
// scrape hook: a process that starts the daemon many times must not
// sample the runtime once per start on every read.
func TestRegisterRuntimeGaugesOncePerRegistry(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeGauges(r)
	RegisterRuntimeGauges(r)
	if n := len(r.hooks); n != 1 {
		t.Fatalf("two registrations left %d scrape hooks, want 1", n)
	}
	if s, err := Samples(r); err != nil || s["unclean_runtime_goroutines"] < 1 {
		t.Fatalf("runtime gauges not exposed (%v): %v", err, s)
	}
	other := NewRegistry()
	RegisterRuntimeGauges(other)
	if n := len(other.hooks); n != 1 {
		t.Fatalf("a second registry got %d scrape hooks, want its own 1", n)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if v := g.Value(); v != 0 {
		t.Fatalf("zero gauge = %d, want 0", v)
	}
	g.Set(5)
	g.Set(-3)
	if v := g.Value(); v != -3 {
		t.Fatalf("gauge = %d, want -3", v)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != NoData {
		t.Fatal("empty histogram quantile did not return the NoData sentinel")
	}
	// 100 observations spread uniformly over [1ms, 100ms].
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	// Log2 buckets are coarse: accept a factor-of-two band around truth.
	if p50 < 25*time.Millisecond || p50 > 100*time.Millisecond {
		t.Errorf("p50 = %v, want ≈50ms within a bucket", p50)
	}
	if p99 < 64*time.Millisecond || p99 > 200*time.Millisecond {
		t.Errorf("p99 = %v, want ≈99ms within a bucket", p99)
	}
	if p99 < p50 {
		t.Errorf("p99 (%v) < p50 (%v)", p99, p50)
	}
	if h.Sum() != 5050*time.Millisecond {
		t.Errorf("sum = %v, want 5.05s", h.Sum())
	}
}

// Table-driven edge cases for Quantile: empty, single-bucket,
// all-zero, the unbounded top overflow bucket, and out-of-range q
// values. Empty must return the NoData sentinel, never NaN or garbage.
func TestHistogramQuantileEdges(t *testing.T) {
	fill := func(ds ...time.Duration) *Histogram {
		h := new(Histogram)
		for _, d := range ds {
			h.Observe(d)
		}
		return h
	}
	us := time.Microsecond
	// 3µs lands in the log₂ bucket [2048ns, 4096ns).
	bLo, bHi := 2048*time.Nanosecond, 4096*time.Nanosecond
	tailFloor := time.Duration(uint64(1) << uint(histBuckets-2)) // ≈4.6 min
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want func(got time.Duration) bool
		desc string
	}{
		{"empty p50", fill(), 0.5, func(g time.Duration) bool { return g == NoData }, "NoData"},
		{"empty p0", fill(), 0, func(g time.Duration) bool { return g == NoData }, "NoData"},
		{"empty p100", fill(), 1, func(g time.Duration) bool { return g == NoData }, "NoData"},
		{"single obs p50", fill(3 * us), 0.5,
			func(g time.Duration) bool { return g >= bLo && g < bHi }, "inside its bucket"},
		{"single obs p100", fill(3 * us), 1,
			func(g time.Duration) bool { return g >= bLo && g <= bHi }, "at most the bucket top"},
		{"single-bucket many obs", fill(3*us, 3*us, 3*us, 3*us), 0.99,
			func(g time.Duration) bool { return g >= bLo && g <= bHi }, "inside the one bucket"},
		{"all zero p100", fill(0, 0, 0), 1,
			func(g time.Duration) bool { return g == 0 }, "0"},
		{"negative counts as zero", fill(-time.Second), 0.5,
			func(g time.Duration) bool { return g == 0 }, "0"},
		{"top overflow bucket p50", fill(10 * time.Hour), 0.5,
			func(g time.Duration) bool { return g == tailFloor }, "the tail floor"},
		{"top overflow bucket p100", fill(10*time.Hour, 20*time.Hour), 1,
			func(g time.Duration) bool { return g == tailFloor }, "the tail floor"},
		{"q below range clamps", fill(3 * us), -0.5,
			func(g time.Duration) bool { return g >= 0 && g <= bHi }, "clamped to q=0"},
		{"q above range clamps", fill(3 * us), 7,
			func(g time.Duration) bool { return g >= bLo && g <= bHi }, "clamped to q=1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.h.Quantile(c.q)
			if !c.want(got) {
				t.Errorf("Quantile(%v) = %v, want %s", c.q, got, c.desc)
			}
		})
	}
	// Snapshot of an empty histogram carries the sentinel through.
	s := new(Histogram).Snapshot()
	if s.Count != 0 || s.P50 != NoData || s.P95 != NoData || s.P99 != NoData {
		t.Errorf("empty snapshot = %+v, want NoData quantiles", s)
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // counts as zero
	h.Observe(0)
	if got := h.Quantile(1); got != 0 {
		t.Fatalf("all-zero histogram p100 = %v", got)
	}
	var tail Histogram
	tail.Observe(10 * time.Hour) // beyond the last bounded bucket
	if got := tail.Quantile(0.5); got < 4*time.Minute {
		t.Fatalf("unbounded-tail quantile = %v, want the tail floor", got)
	}
	s := tail.Snapshot()
	if s.Count != 1 || s.Sum != 10*time.Hour {
		t.Fatalf("snapshot = %+v", s)
	}
}
