package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"unclean/internal/feedmesh"
)

// serveMesh answers /debug/mesh as dnsbld does: with the JSON encoding
// of a feedmesh.Status.
func serveMesh(t *testing.T, mux *http.ServeMux, st feedmesh.Status) {
	t.Helper()
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	mux.HandleFunc("/debug/mesh", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
}

// serveReady answers /readyz with a ready document whose feed_mesh
// check reads detail, and /metrics.json with no series.
func serveReady(mux *http.ServeMux, detail string) {
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ready": true, "checks": {
			"feed_mesh": {"ok": true, "detail": "` + detail + `"}
		}, "info": {}}`))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"metrics": []}`))
	})
}

// The status view renders health, the feed table, SLO burn, windowed
// rates, and recent events from a daemon's diagnostic surface —
// verified against a fake daemon so the rendering contract is pinned
// without a live dnsbld. A daemon without /debug/mesh is an error that
// names the path.
func TestWriteStatus(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{
			"ready": false,
			"checks": {
				"feed_mesh": {"ok": false, "detail": "0/1 feeds healthy (reports=quarantined); degraded: serving last-good list"},
				"shed": {"ok": true, "detail": "shed rate 0.00 over the last minute"}
			},
			"info": {"udp_addr": "127.0.0.1:5354", "zone": "bl.unclean.example"}
		}`))
	})
	meshBody, err := json.Marshal(feedmesh.Status{Round: 9, MergedBlocks: 17, Degraded: true,
		TotalFeeds: 1, Feeds: []feedmesh.FeedStatus{
			{Name: "reports", State: feedmesh.StateQuarantined, Quality: 0.2, Loads: 3, Failures: 5},
		}})
	if err != nil {
		t.Fatal(err)
	}
	meshMissing := false
	mux.HandleFunc("/debug/mesh", func(w http.ResponseWriter, r *http.Request) {
		if meshMissing {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(meshBody)
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

	client := &http.Client{Timeout: time.Second}
	var out strings.Builder
	if err := writeStatus(&out, client, ts.URL, 5); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"NOT READY",
		"[FAIL] feed_mesh",
		"reports=quarantined",
		"[ok  ] shed",
		"udp_addr=127.0.0.1:5354",
		"zone=bl.unclean.example",
		"feed mesh: 0/1 feeds healthy, 17 merged blocks — DEGRADED, serving last-good list",
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
	if states := feedStates(got); states["reports"] != "quarantined" {
		t.Errorf("reports row reads %q, want quarantined:\n%s", states["reports"], got)
	}
	// The idle shed counter must be suppressed, not rendered as zero.
	if strings.Contains(got, "unclean_dnsbl_window_shed_total") {
		t.Errorf("idle windowed counter rendered:\n%s", got)
	}

	meshMissing = true
	out.Reset()
	err = writeStatus(&out, client, ts.URL, 5)
	if err == nil || !strings.Contains(err.Error(), "/debug/mesh") || !strings.Contains(err.Error(), "404") {
		t.Errorf("daemon without /debug/mesh: err = %v, want a 404 naming the path", err)
	}
	if out.Len() != 0 {
		t.Errorf("status printed a partial screen before failing:\n%s", out.String())
	}
}

// feedStates maps each row of the printed feed table to its STATE.
func feedStates(out string) map[string]string {
	states := map[string]string{}
	_, table, _ := strings.Cut(out, "  FEED ")
	for _, line := range strings.Split(table, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(line, "  ") {
			break
		}
		states[f[0]] = f[1]
	}
	return states
}

// The feed table prints every feed of the daemon's feedmesh.Status,
// its ratios from the float fields at two decimals.
func TestWriteStatusFeedMeshTable(t *testing.T) {
	mux := http.NewServeMux()
	serveReady(mux, "1/2 feeds healthy (beta=quarantined)")
	serveMesh(t, mux, feedmesh.Status{Round: 40, MergedBlocks: 17, HealthyFeeds: 1, TotalFeeds: 2,
		Feeds: []feedmesh.FeedStatus{
			{Name: "alpha", State: feedmesh.StateHealthy, Quality: 0.97, Weight: 0.97, DupRatio: 0.6051,
				Lag: time.Minute, Loads: 42, Failures: 1, BatchAddrs: 64},
			{Name: "beta", State: feedmesh.StateQuarantined, Quality: 0.15, Weight: 0.04, Loads: 30, Failures: 12},
		}})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	if err := writeStatus(&out, &http.Client{Timeout: time.Second}, ts.URL, 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"feed mesh: 1/2 feeds healthy, 17 merged blocks\n",
		"  FEED             STATE        QUALITY  WEIGHT    DUP     FP       LAG   ADDRS  LOADS  FAILS\n",
		"  alpha            healthy         0.97    0.97   0.61   0.00      1m0s      64     42      1\n",
		"  beta             quarantined     0.15    0.04   0.00   0.00        0s       0     30     12\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("mesh table missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "DEGRADED") {
		t.Errorf("degraded banner shown for a non-degraded mesh:\n%s", got)
	}
}

// The serving windows list the DNSBL's own series but not the feed
// mesh's per-feed load windows and SLO, which the feed table already
// shows as LOADS and FAILS.
func TestWriteStatusSkipsFeedMeshWindows(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ready": true, "checks": {"feed_mesh": {"ok": true, "detail": "2/2 feeds healthy"}}, "info": {}}`))
	})
	serveMesh(t, mux, feedmesh.Status{Round: 3, HealthyFeeds: 2, TotalFeeds: 2,
		Feeds: []feedmesh.FeedStatus{
			{Name: "a", State: feedmesh.StateHealthy, Quality: 1, Weight: 1, Loads: 3},
			{Name: "b", State: feedmesh.StateHealthy, Quality: 1, Weight: 1, Loads: 3},
		}})
	var feeds strings.Builder
	for _, f := range []string{"a", "b"} {
		feeds.WriteString(`
			{"name": "unclean_feedmesh_load_attempts", "labels": {"feed": "` + f + `"}, "kind": "windowed_counter",
			 "windows": {"1m": {"total": 3, "rate_per_second": 0.05}}},
			{"name": "unclean_feedmesh_load_ok", "labels": {"feed": "` + f + `"}, "kind": "windowed_counter",
			 "windows": {"1m": {"total": 3, "rate_per_second": 0.05}}},
			{"name": "unclean_feedmesh_load_success", "labels": {"feed": "` + f + `"},
			 "kind": "slo", "target": 0.9, "burn_rate": {"5m": 0, "1h": 0}},`)
	}
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"metrics": [` + feeds.String() + `
			{"name": "unclean_dnsbl_availability", "labels": {"zone": "bl.unclean.example"},
			 "kind": "slo", "target": 0.999, "burn_rate": {"5m": 0.5}},
			{"name": "unclean_dnsbl_window_query_seconds", "labels": {"zone": "bl.unclean.example"},
			 "kind": "windowed_histogram", "windows": {"1m": {"count": 7}}},
			{"name": "unclean_dnsbl_window_errors_total", "kind": "windowed_counter",
			 "windows": {"1m": {"total": 2, "rate_per_second": 0.03}}}
		]}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	if err := writeStatus(&out, &http.Client{Timeout: time.Second}, ts.URL, 0); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Contains(got, "unclean_feedmesh_") {
		t.Errorf("feed mesh windows printed below the feed table:\n%s", got)
	}
	for _, want := range []string{
		"slo unclean_dnsbl_availability{zone=bl.unclean.example}: target 99.9%  burn[5m]=0.5\n",
		"unclean_dnsbl_window_query_seconds{zone=bl.unclean.example} last 1m: 7 observed\n",
		"unclean_dnsbl_window_errors_total last 1m: 2 (0.03/s)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("status output missing %q:\n%s", want, got)
		}
	}
	if states := feedStates(got); states["a"] != "healthy" || states["b"] != "healthy" {
		t.Errorf("feed table reads %v, want a and b healthy:\n%s", states, got)
	}
}

// A feed in the healthy state that has never loaded is shown as
// never-loaded, the word /readyz uses, not healthy.
func TestWriteStatusNeverLoadedFeed(t *testing.T) {
	mux := http.NewServeMux()
	serveReady(mux, "1/2 feeds healthy (c=never-loaded)")
	serveMesh(t, mux, feedmesh.Status{Round: 1, HealthyFeeds: 1, TotalFeeds: 2,
		Feeds: []feedmesh.FeedStatus{
			{Name: "a", State: feedmesh.StateHealthy, Quality: 1, Weight: 1, Loads: 3},
			{Name: "c", State: feedmesh.StateHealthy, Quality: 0.6, Failures: 1},
		}})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	if err := writeStatus(&out, &http.Client{Timeout: time.Second}, ts.URL, 0); err != nil {
		t.Fatal(err)
	}
	states := feedStates(out.String())
	if states["a"] != "healthy" || states["c"] != "never-loaded" {
		t.Errorf("states a=%q c=%q, want healthy and never-loaded:\n%s", states["a"], states["c"], out.String())
	}
}

func TestCmdStatusRequiresMetrics(t *testing.T) {
	if err := cmdStatus(nil); err == nil {
		t.Fatal("status without -metrics accepted")
	}
}
