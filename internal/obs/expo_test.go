package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with one of everything, including a
// label value that needs escaping.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("unclean_test_requests_total", "Requests handled.").Add(42)
	r.Counter("unclean_test_requests_total", "Requests handled.", "zone", "bl.example").Add(7)
	r.Counter("unclean_test_rejects_total", `Rejects with "odd" label.`, "why", "a\\b\"c\nd").Inc()
	r.Gauge("unclean_test_inflight", "Requests in flight.").Set(3)
	h := r.Histogram("unclean_test_latency_seconds", "Request latency.")
	h.Observe(0)
	h.Observe(800 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	return r
}

func TestPrometheusTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("text exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestJSONExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, goldenRegistry()); err != nil {
		t.Fatal(err)
	}
	var doc MetricsDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON exposition does not parse: %v\n%s", err, buf.Bytes())
	}
	byName := map[string]int{}
	for i, m := range doc.Metrics {
		byName[m.Name] = i
	}
	i, ok := byName["unclean_test_latency_seconds"]
	if !ok {
		t.Fatal("histogram missing from JSON")
	}
	m := doc.Metrics[i]
	if m.Kind != "histogram" || m.Count == nil || *m.Count != 5 || m.P99Seconds == nil || *m.P99Seconds <= 0 {
		t.Fatalf("histogram JSON malformed: %+v", m)
	}
	g := doc.Metrics[byName["unclean_test_inflight"]]
	if g.Kind != "gauge" || g.Value == nil || *g.Value != 3 {
		t.Fatalf("gauge JSON malformed: %+v", g)
	}
}

func TestHandlerRoutesTextAndJSON(t *testing.T) {
	h := Handler(goldenRegistry())

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "unclean_test_requests_total 42") {
		t.Errorf("/metrics missing counter:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics.json content type = %q", ct)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Errorf("/metrics.json is not valid JSON")
	}
}

// Samples keys every sample line by its series as /metrics spells it,
// escaped labels and all, after running the scrape hooks.
func TestSamples(t *testing.T) {
	r := goldenRegistry()
	hooked := r.Gauge("unclean_test_hooked", "Set by the scrape hook.")
	r.OnScrape(func() { hooked.Set(9) })
	r.Counter("unclean_test_spaced_total", "A label value with a space.", "feed", "a b").Inc()
	got, err := Samples(r)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"unclean_test_requests_total":                    42,
		`unclean_test_requests_total{zone="bl.example"}`: 7,
		`unclean_test_rejects_total{why="a\\b\"c\nd"}`:   1,
		`unclean_test_latency_seconds_bucket{le="+Inf"}`: 5,
		"unclean_test_latency_seconds_count":             5,
		"unclean_test_hooked":                            9,
		`unclean_test_spaced_total{feed="a b"}`:          1,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("Samples()[%s] = %v, %v; want %v", series, v, ok, want)
		}
	}
}

func TestMergedRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("bbb_total", "h").Inc()
	b.Counter("aaa_total", "h").Add(2)
	var buf bytes.Buffer
	if err := WriteText(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Index(out, "aaa_total") > strings.Index(out, "bbb_total") {
		t.Errorf("merged output not sorted:\n%s", out)
	}
}

// TestConcurrentScrape hammers one registry from 8 goroutines while the
// exposition paths scrape it — run under -race this is the data-race
// proof for the whole hot path.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "h")
	g := r.Gauge("hammer_inflight", "h")
	h := r.Histogram("hammer_seconds", "h")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(1)
				h.Observe(time.Duration(i+1) * time.Microsecond)
				// Concurrent registration of the same and new series.
				r.Counter("hammer_total", "h").Inc()
				r.Counter("hammer_lane_total", "h", "lane", string(rune('a'+i))).Inc()
				g.Set(0)
			}
		}(i)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := WriteText(&buf, r); err != nil {
			t.Error(err)
			break
		}
		if err := WriteJSON(&buf, r); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatal("hammer made no progress")
	}
	if g.Value() != 0 {
		t.Fatalf("gauge ends at %d, want 0", g.Value())
	}
}

// TestJSONGolden pins the /metrics.json bytes for one metric of every
// kind, the windowed ones and the SLO on an injected clock: readers
// (uncleanctl, bundle summaries, the benchmark) decode these bytes.
func TestJSONGolden(t *testing.T) {
	r := goldenRegistry()
	r.Histogram("unclean_test_idle_seconds", "Never observed.")
	clk := newFakeClock()
	wc := r.WindowedCounter("unclean_test_window_total", "Windowed events.", "zone", "bl.example")
	wc.Clock(clk.now)
	wh := r.WindowedHistogram("unclean_test_window_seconds", "Windowed latency.", "zone", "bl.example")
	wh.Clock(clk.now)
	bad := r.WindowedCounter("unclean_test_bad_total", "Failures.")
	bad.Clock(clk.now)
	r.RegisterSLO(&SLO{Name: "unclean_test_availability", Help: "Availability SLO.",
		Target: 0.999, Bad: bad, Total: wh.AsTotal()}, "zone", "bl.example")
	now := clk.now()
	for _, ago := range []time.Duration{30 * time.Minute, 2 * time.Minute, 0} {
		at := now.Add(-ago)
		wc.AddAt(at, 3)
		wh.ObserveAt(at, 2*time.Millisecond)
		wh.ObserveAt(at, 40*time.Microsecond)
	}
	bad.AddAt(now.Add(-2*time.Minute), 1)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/metrics.json.golden", buf.Bytes())
}

// checkGolden compares got with the golden file at path, rewriting it
// under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file.\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
