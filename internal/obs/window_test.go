package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock marches deterministically under test control.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2006, 10, 14, 12, 0, 5, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestWindowedCounterRotation(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedCounter()
	w.Clock(clk.now)

	w.AddAt(clk.now(), 10)
	if got := w.Total(time.Minute); got != 10 {
		t.Fatalf("fresh total = %d, want 10", got)
	}
	// 30s later the events are outside a 10s horizon but inside 1m.
	clk.advance(30 * time.Second)
	w.IncAt(clk.now())
	if got := w.Total(10 * time.Second); got != 1 {
		t.Errorf("10s window = %d, want 1", got)
	}
	if got := w.Total(time.Minute); got != 11 {
		t.Errorf("1m window = %d, want 11", got)
	}
	// 2 minutes later the 1m window is empty, 5m still sees everything.
	clk.advance(2 * time.Minute)
	if got := w.Total(time.Minute); got != 0 {
		t.Errorf("aged 1m window = %d, want 0", got)
	}
	if got := w.Total(5 * time.Minute); got != 11 {
		t.Errorf("5m window = %d, want 11", got)
	}
	// Wrap the whole ring: events older than the retained hour vanish
	// even though their cells were never explicitly cleared.
	clk.advance(2 * time.Hour)
	if got := w.Total(time.Hour); got != 0 {
		t.Errorf("after 2h idle, 1h window = %d, want 0", got)
	}
	w.AddAt(clk.now(), 3)
	if got := w.Total(time.Minute); got != 3 {
		t.Errorf("post-wrap total = %d, want 3", got)
	}
}

func TestWindowedCounterRate(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedCounter()
	w.Clock(clk.now)
	w.AddAt(clk.now(), 600)
	if got := w.Rate(time.Minute); got != 10 {
		t.Errorf("rate = %v/s, want 10", got)
	}
}

func TestWindowedHistogramQuantiles(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram()
	w.Clock(clk.now)

	for i := 0; i < 100; i++ {
		w.ObserveAt(clk.now(), 2*time.Millisecond)
	}
	clk.advance(3 * time.Minute)
	for i := 0; i < 100; i++ {
		w.ObserveAt(clk.now(), 60*time.Millisecond)
	}

	// 1m sees only the slow batch; 5m sees both.
	if got := w.Snapshot(time.Minute).P50; got < 32*time.Millisecond || got > 128*time.Millisecond {
		t.Errorf("1m p50 = %v, want ≈60ms", got)
	}
	fiveMin := w.Snapshot(5 * time.Minute)
	if fiveMin.Count != 200 {
		t.Errorf("5m count = %d, want 200", fiveMin.Count)
	}
	if fiveMin.P99 < 32*time.Millisecond {
		t.Errorf("5m p99 = %v, want the slow batch's bucket", fiveMin.P99)
	}
	if fiveMin.P50 > fiveMin.P99 {
		t.Errorf("p50 %v > p99 %v", fiveMin.P50, fiveMin.P99)
	}

	// An empty window returns the documented sentinel.
	clk.advance(2 * time.Hour)
	if s := w.Snapshot(time.Minute); s.Count != 0 || s.P50 != NoData || s.P95 != NoData {
		t.Errorf("empty window snapshot = %+v", s)
	}
}

func TestWindowedConcurrent(t *testing.T) {
	w := NewWindowedCounter()
	h := NewWindowedHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.IncAt(time.Now())
				h.ObserveAt(time.Now(), time.Millisecond)
				w.Total(time.Minute)
				h.Count(time.Minute)
			}
		}()
	}
	wg.Wait()
	// Real clock, no rotation mid-test expected at this speed; totals
	// must be close to exact (rotation-edge loss is bounded).
	if got := w.Total(time.Minute); got < 7900 || got > 8000 {
		t.Errorf("concurrent total = %d, want ≈8000", got)
	}
	if got := h.Count(time.Minute); got < 7900 || got > 8000 {
		t.Errorf("concurrent histogram count = %d, want ≈8000", got)
	}
}

func TestSLOBurnRate(t *testing.T) {
	clk := newFakeClock()
	good, total := NewWindowedCounter(), NewWindowedCounter()
	good.Clock(clk.now)
	total.Clock(clk.now)
	slo := &SLO{Name: "unclean_test_availability", Target: 0.99, Good: good, Total: total}

	// Idle: no traffic, no burn.
	if got := slo.BurnRate(5 * time.Minute); got != 0 {
		t.Errorf("idle burn = %v, want 0", got)
	}

	// 1000 requests, 990 good → 1% failures against a 1% budget: burn 1.
	total.AddAt(clk.now(), 1000)
	good.AddAt(clk.now(), 990)
	if got := slo.BurnRate(5 * time.Minute); got < 0.99 || got > 1.01 {
		t.Errorf("burn = %v, want ≈1.0", got)
	}

	// 10% failures → burn 10 on both windows: page.
	total.AddAt(clk.now(), 1000)
	good.AddAt(clk.now(), 100)
	if slo.BurnRate(5*time.Minute) <= 2 || slo.BurnRate(time.Hour) <= 2 {
		t.Errorf("hot SLO not burning: short=%v long=%v",
			slo.BurnRate(5*time.Minute), slo.BurnRate(time.Hour))
	}

	// Good > total (independent rotation edge) clamps, never negative.
	g2, t2 := NewWindowedCounter(), NewWindowedCounter()
	g2.AddAt(time.Now(), 10)
	t2.AddAt(time.Now(), 5)
	s2 := &SLO{Name: "x", Target: 0.9, Good: g2, Total: t2}
	if got := s2.BadRatio(time.Minute); got != 0 {
		t.Errorf("clamped bad ratio = %v, want 0", got)
	}
}

// The new kinds must render in both exposition formats.
func TestWindowedExposition(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry()
	wc := r.WindowedCounter("unclean_test_w_total", "Windowed events.", "zone", "z")
	wc.Clock(clk.now)
	wh := r.WindowedHistogram("unclean_test_w_seconds", "Windowed latency.")
	wh.Clock(clk.now)
	good := r.WindowedCounter("unclean_test_good_total", "Good.")
	total := r.WindowedCounter("unclean_test_all_total", "All.")
	good.Clock(clk.now)
	total.Clock(clk.now)
	r.RegisterSLO(&SLO{Name: "unclean_test_avail", Help: "Availability SLO.",
		Target: 0.999, Good: good, Total: total})

	wc.AddAt(clk.now(), 7)
	wh.ObserveAt(clk.now(), 4*time.Millisecond)
	total.AddAt(clk.now(), 100)
	good.AddAt(clk.now(), 90)

	var buf bytes.Buffer
	if err := WriteText(&buf, r); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`unclean_test_w_total{zone="z",window="1m"} 7`,
		`unclean_test_w_total{zone="z",window="1h"} 7`,
		`# TYPE unclean_test_w_total gauge`,
		`unclean_test_w_seconds_count{window="5m"} 1`,
		`unclean_test_w_seconds{window="1m",quantile="0.99"}`,
		`# TYPE unclean_test_avail_burn_rate gauge`,
		`unclean_test_avail_target 0.999`,
		// Exact burn value is float math (≈100); assert the series exists
		// and check magnitude via the JSON side below.
		`unclean_test_avail_burn_rate{window="5m"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text exposition missing %q:\n%s", want, text)
		}
	}

	buf.Reset()
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var doc MetricsDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON exposition invalid: %v\n%s", err, buf.String())
	}
	byName := map[string]int{}
	for i, m := range doc.Metrics {
		byName[m.Name+"/"+m.Kind] = i
	}
	if i, ok := byName["unclean_test_w_total/windowed_counter"]; !ok {
		t.Errorf("JSON missing windowed counter: %v", byName)
	} else if w1m := doc.Metrics[i].Windows["1m"]; w1m.Total == nil || *w1m.Total != 7 {
		t.Errorf("windowed counter 1m = %+v, want total 7", w1m)
	}
	if i, ok := byName["unclean_test_avail/slo"]; !ok {
		t.Errorf("JSON missing SLO: %v", byName)
	} else {
		m := doc.Metrics[i]
		if m.Target == nil || *m.Target != 0.999 || m.BurnRate["5m"] < 99 {
			t.Errorf("SLO JSON = target %v burn %v", m.Target, m.BurnRate)
		}
	}
	if i, ok := byName["unclean_test_w_seconds/windowed_histogram"]; !ok {
		t.Errorf("JSON missing windowed histogram: %v", byName)
	} else if w5m := doc.Metrics[i].Windows["5m"]; w5m.Count == nil || *w5m.Count != 1 || w5m.P99Seconds == nil {
		t.Errorf("windowed histogram 5m = %+v", w5m)
	}
}
