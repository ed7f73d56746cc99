package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The status view renders health, SLO burn, windowed rates, and recent
// events from a daemon's diagnostic surface — verified against a fake
// daemon so the rendering contract is pinned without a live dnsbld.
func TestWriteStatus(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{
			"ready": false,
			"checks": {
				"feed_breaker": {"ok": false, "detail": "feed circuit open; serving last-good list"},
				"shed": {"ok": true, "detail": "shed rate 0.00 over the last minute"}
			},
			"info": {"udp_addr": "127.0.0.1:5354", "zone": "bl.unclean.example"}
		}`))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"metrics": [
			{"name": "unclean_dnsbl_availability", "labels": {"zone": "bl.unclean.example"},
			 "kind": "slo", "target": 0.999, "burn_rate": {"5m": 2.5, "1h": 0.1}},
			{"name": "unclean_dnsbl_window_query_seconds", "labels": {"zone": "bl.unclean.example"},
			 "kind": "windowed_histogram",
			 "windows": {"1m": {"count": 42, "p50_seconds": 0.000002, "p99_seconds": 0.00001},
			             "5m": {"count": 42}, "1h": {"count": 42}}},
			{"name": "unclean_dnsbl_window_shed_total", "kind": "windowed_counter",
			 "windows": {"1m": {"total": 0, "rate_per_second": 0}}}
		]}`))
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("n"); got != "5" {
			t.Errorf("events request n=%q, want 5", got)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"recorded": 99, "events": [
			{"seq": 98, "time": "2026-08-06T12:00:00Z", "kind": "breaker",
			 "verdict": "open", "flags": ["err"], "detail": "ingest: boom"},
			{"seq": 99, "time": "2026-08-06T12:00:01Z", "kind": "query",
			 "verdict": "hit", "client": "192.0.2.9", "addr": "10.1.1.2", "latency": "12µs"}
		]}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	if err := writeStatus(&out, &http.Client{Timeout: time.Second}, ts.URL, 5); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"NOT READY",
		"[FAIL] feed_breaker",
		"feed circuit open",
		"[ok  ] shed",
		"udp_addr=127.0.0.1:5354",
		"zone=bl.unclean.example",
		"slo unclean_dnsbl_availability{zone=bl.unclean.example}: target 99.9%",
		"burn[5m]=2.5",
		"unclean_dnsbl_window_query_seconds{zone=bl.unclean.example} last 1m: 42 observed",
		"p99 10µs",
		"recent events (2 of 99 recorded)",
		"breaker    open",
		"[err] — ingest: boom",
		"client=192.0.2.9 addr=10.1.1.2 12µs",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("status output missing %q:\n%s", want, got)
		}
	}
	// The idle shed counter must be suppressed, not rendered as zero.
	if strings.Contains(got, "unclean_dnsbl_window_shed_total") {
		t.Errorf("idle windowed counter rendered:\n%s", got)
	}
	// No unclean_feedmesh_* series: the section must say they are
	// missing rather than silently vanish.
	if !strings.Contains(got, "feed mesh: none") {
		t.Errorf("scrape without mesh series missing the explicit no-mesh line:\n%s", got)
	}
	if strings.Contains(got, "FEED") {
		t.Errorf("feed table rendered without mesh series:\n%s", got)
	}
}

// A daemon running the feed mesh exposes per-feed gauges; the status
// view must fold them into one health table.
func TestWriteStatusFeedMeshTable(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ready": true, "checks": {
			"feed_mesh": {"ok": true, "detail": "1/2 feeds healthy (beta=quarantined)"}
		}, "info": {}}`))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"metrics": [
			{"name": "unclean_feedmesh_state", "labels": {"feed": "alpha"}, "kind": "gauge", "value": 0},
			{"name": "unclean_feedmesh_quality_permille", "labels": {"feed": "alpha"}, "kind": "gauge", "value": 970},
			{"name": "unclean_feedmesh_weight_permille", "labels": {"feed": "alpha"}, "kind": "gauge", "value": 970},
			{"name": "unclean_feedmesh_dup_permille", "labels": {"feed": "alpha"}, "kind": "gauge", "value": 120},
			{"name": "unclean_feedmesh_fp_permille", "labels": {"feed": "alpha"}, "kind": "gauge", "value": 0},
			{"name": "unclean_feedmesh_lag_ms", "labels": {"feed": "alpha"}, "kind": "gauge", "value": 60000},
			{"name": "unclean_feedmesh_batch_addrs", "labels": {"feed": "alpha"}, "kind": "gauge", "value": 64},
			{"name": "unclean_feedmesh_loads_total", "labels": {"feed": "alpha"}, "kind": "counter", "value": 42},
			{"name": "unclean_feedmesh_load_failures_total", "labels": {"feed": "alpha"}, "kind": "counter", "value": 1},
			{"name": "unclean_feedmesh_state", "labels": {"feed": "beta"}, "kind": "gauge", "value": 2},
			{"name": "unclean_feedmesh_quality_permille", "labels": {"feed": "beta"}, "kind": "gauge", "value": 150},
			{"name": "unclean_feedmesh_weight_permille", "labels": {"feed": "beta"}, "kind": "gauge", "value": 40},
			{"name": "unclean_feedmesh_merged_blocks", "kind": "gauge", "value": 17},
			{"name": "unclean_feedmesh_healthy_feeds", "kind": "gauge", "value": 1},
			{"name": "unclean_feedmesh_degraded", "kind": "gauge", "value": 0}
		]}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	if err := writeStatus(&out, &http.Client{Timeout: time.Second}, ts.URL, 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"feed mesh: 1/2 feeds healthy, 17 merged blocks",
		"FEED", "STATE", "QUALITY",
		"alpha", "healthy", "0.97", "1m0s", "42",
		"beta", "quarantined", "0.15",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("mesh table missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "DEGRADED") {
		t.Errorf("degraded banner shown for a non-degraded mesh:\n%s", got)
	}
}

// A feed whose state gauge still reads healthy but which has never
// loaded is shown as never-loaded, the word /readyz uses, not healthy.
func TestWriteStatusNeverLoadedFeed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ready": true, "checks": {
			"feed_mesh": {"ok": true, "detail": "1/2 feeds healthy (c=never-loaded)"}
		}, "info": {}}`))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"metrics": [
			{"name": "unclean_feedmesh_state", "labels": {"feed": "a"}, "kind": "gauge", "value": 0},
			{"name": "unclean_feedmesh_loads_total", "labels": {"feed": "a"}, "kind": "counter", "value": 3},
			{"name": "unclean_feedmesh_state", "labels": {"feed": "c"}, "kind": "gauge", "value": 0},
			{"name": "unclean_feedmesh_loads_total", "labels": {"feed": "c"}, "kind": "counter", "value": 0},
			{"name": "unclean_feedmesh_load_failures_total", "labels": {"feed": "c"}, "kind": "counter", "value": 1},
			{"name": "unclean_feedmesh_healthy_feeds", "kind": "gauge", "value": 1}
		]}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	if err := writeStatus(&out, &http.Client{Timeout: time.Second}, ts.URL, 0); err != nil {
		t.Fatal(err)
	}
	states := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			states[f[0]] = f[1]
		}
	}
	if states["a"] != "healthy" || states["c"] != "never-loaded" {
		t.Errorf("states a=%q c=%q, want healthy and never-loaded:\n%s", states["a"], states["c"], out.String())
	}
}

func TestCmdStatusRequiresMetrics(t *testing.T) {
	if err := cmdStatus(nil); err == nil {
		t.Fatal("status without -metrics accepted")
	}
}
