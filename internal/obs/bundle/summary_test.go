package bundle

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"unclean/internal/feedmesh"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
	"unclean/internal/obs/watchdog"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenMembers renders every member document through the writer the
// daemon uses, on fixed clocks, so the summary golden pins what
// Summarize makes of real documents.
func goldenMembers(t *testing.T) []File {
	t.Helper()
	at := time.Date(2026, 8, 8, 11, 59, 30, 0, time.UTC)
	indent := func(v any) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	trigger := indent(watchdog.Trigger{Rule: "shed", Signal: "dnsbl_shed_frac_1m", Value: 0.42,
		Threshold: 0.2, Op: ">", Held: 3, At: at,
		Evidence: "dnsbl_shed_frac_1m=0.42 > 0.2, held 3 tick(s)"})

	h := obs.NewHealth()
	h.SetInfo("zone", "bl.example")
	h.AddCheck("shed", func() (bool, string) { return false, "shedding 42% of queries over the last minute" })
	h.AddCheck("feed_mesh", func() (bool, string) { return true, "2/3 feeds healthy" })
	rec := httptest.NewRecorder()
	h.ReadyHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))

	mesh := indent(feedmesh.Status{Round: 12, MergedBlocks: 17, Degraded: true,
		HealthyFeeds: 1, TotalFeeds: 3, Feeds: []feedmesh.FeedStatus{
			{Name: "alpha", State: feedmesh.StateHealthy, Quality: 0.97, Loads: 12, LastSuccess: at},
			{Name: "beta", State: feedmesh.StateQuarantined, LastError: "load: connection refused"},
			{Name: "gamma", State: feedmesh.StateProbation},
		}})

	reg := obs.NewRegistry()
	reg.Gauge("unclean_runtime_goroutines", "Goroutines.").Set(12)
	reg.Gauge("unclean_runtime_gomaxprocs", "GOMAXPROCS.", "cgroup", "none").Set(2)
	reg.Counter("unclean_watchdog_triggers_total", "Triggers.", "rule", "shed").Add(2)
	reg.Counter("unclean_watchdog_suppressed_total", "Suppressed.")
	reg.Counter("unclean_dnsbl_queries_total", "Queries.").Add(900)
	now := at.Add(30 * time.Second)
	clock := func() time.Time { return now }
	bad := reg.WindowedCounter("unclean_dnsbl_window_bad_total", "Failures.")
	bad.Clock(clock)
	lat := reg.WindowedHistogram("unclean_dnsbl_window_query_seconds", "Latency.")
	lat.Clock(clock)
	reg.RegisterSLO(&obs.SLO{Name: "unclean_dnsbl_availability", Target: 0.999,
		Bad: bad, Total: lat.AsTotal()}, "zone", "bl.example")
	for i := 0; i < 100; i++ {
		lat.ObserveAt(now, time.Millisecond)
	}
	bad.AddAt(now, 4)
	var metrics bytes.Buffer
	if err := obs.WriteJSON(&metrics, reg); err != nil {
		t.Fatal(err)
	}

	fr := flight.New(64)
	tick := at
	fr.Clock(func() time.Time { tick = tick.Add(time.Second); return tick })
	fr.Record(flight.Event{Kind: flight.KindServer, Verdict: "start"})
	for i := 0; i < 10; i++ {
		fr.Record(flight.Event{Kind: flight.KindQuery, Name: "bl.example", Verdict: "shed",
			Flags: flight.FlagShed, Detail: fmt.Sprintf("send: buffer full #%d", i)})
		fr.Record(flight.Event{Kind: flight.KindQuery, Name: "bl.example", Verdict: "miss"})
	}
	fr.Record(flight.Event{Kind: flight.KindWatchdog, Name: "shed", Verdict: "trigger", Flags: flight.FlagErr})
	var events bytes.Buffer
	if err := fr.EncodeDump(&events, "bundle:watchdog:shed"); err != nil {
		t.Fatal(err)
	}

	return []File{
		{Name: TriggerName, Data: trigger, Note: "triggering watchdog rule"},
		{Name: MetricsJSONName, Data: metrics.Bytes(), Note: "metrics snapshot (JSON, quantiles precomputed)"},
		{Name: FlightName, Data: events.Bytes(), Note: "flight-recorder dump (all events + kept ring)"},
		{Name: HealthName, Data: rec.Body.Bytes(), Note: "health checks (the /readyz document)"},
		{Name: MeshName, Data: mesh, Note: "per-feed reputation mesh state"},
		{Name: ProfileDir + "heap-000002.pprof", Data: []byte{0x1f, 0x8b, 0x08, 0x00}, Note: "heap profile"},
		{Name: ProfileDir + "cpu-000003.pprof", Note: "FAILED: cpu profiler busy"},
	}
}

// TestSummarizeGolden pins the one-screen triage view of a bundle that
// carries every member kind, as `uncleanctl diagnose -summarize` prints
// it.
func TestSummarizeGolden(t *testing.T) {
	man := testManifest()
	man.Hostname = "probe-1"
	man.Revision = "0123456789abcdef0123"
	var buf bytes.Buffer
	if err := Write(&buf, man, goldenMembers(t)); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sum bytes.Buffer
	if err := Summarize(&sum, b); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/summary.golden"
	if *updateGolden {
		if err := os.WriteFile(path, sum.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(sum.Bytes(), want) {
		t.Errorf("summary drifted from its golden file.\n--- got ---\n%s--- want ---\n%s", sum.Bytes(), want)
	}
}

// A feed in the healthy state that has never loaded does not count
// toward feeds=H/T healthy, so the summary names it, with the label
// /readyz and `uncleanctl status` print.
func TestSummarizeNamesNeverLoadedFeed(t *testing.T) {
	mesh, err := json.Marshal(feedmesh.Status{Round: 1, HealthyFeeds: 1, TotalFeeds: 2,
		Feeds: []feedmesh.FeedStatus{
			{Name: "alpha", State: feedmesh.StateHealthy, Loads: 1},
			{Name: "ghost", State: feedmesh.StateHealthy, Failures: 1, LastError: "open /feeds/ghost: no such file or directory"},
		}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, testManifest(), []File{{Name: MeshName, Data: mesh}}); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sum bytes.Buffer
	if err := Summarize(&sum, b); err != nil {
		t.Fatal(err)
	}
	got := sum.String()
	want := "\nMESH     round=1 feeds=1/2 healthy degraded=false\n" +
		"  never-loaded ghost: open /feeds/ghost: no such file or directory\n"
	if !strings.Contains(got, want) {
		t.Errorf("summary does not name the never-loaded feed; want %q in:\n%s", want, got)
	}
	if strings.Contains(got, "alpha") {
		t.Errorf("summary names the healthy feed:\n%s", got)
	}
}
