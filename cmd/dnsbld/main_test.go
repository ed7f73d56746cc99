package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unclean/internal/dnsbl"
	"unclean/internal/feedmesh"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/obs/bundle"
	"unclean/internal/obs/flight"
	"unclean/internal/report"
	"unclean/internal/tracker"
)

// testReport is an observed report valid over 2006-10-01..14.
func testReport(tag string, class report.Class, method, addrs string) *report.Report {
	return &report.Report{Tag: tag, Type: report.Observed, Class: class, Method: method,
		ValidFrom: time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC), ValidTo: time.Date(2006, 10, 14, 0, 0, 0, 0, time.UTC),
		Addrs: ipset.MustParse(addrs)}
}

// writeReports drops a small inventory into dir: eight bot addresses in
// 10.1.1.0/24 (dimension score 1-e^-2 ≈ 0.86) plus a handful of spam
// addresses in 10.2.2.0/24.
func writeReports(t *testing.T, dir string) {
	t.Helper()
	inv := &report.Inventory{}
	inv.Add(testReport("bot", report.ClassBots, "darknet",
		"10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4 10.1.1.5 10.1.1.6 10.1.1.7 10.1.1.8"))
	inv.Add(testReport("spam", report.ClassSpamming, "trap",
		"10.2.2.1 10.2.2.2 10.2.2.3 10.2.2.4 10.2.2.5 10.2.2.6 10.2.2.7 10.2.2.8"))
	if err := inv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
}

func TestRunReportsModeSelfcheck(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)
	ckpt := filepath.Join(t.TempDir(), "tracker.ckpt")
	err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0", "-reports", dir, "-checkpoint", ckpt,
		"-threshold", "0.5", "-selfcheck", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The run must have left a loadable checkpoint behind.
	tr, err := tracker.LoadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if tr.BlockCount() != 2 {
		t.Fatalf("checkpoint has %d blocks, want 2", tr.BlockCount())
	}
}

// A dead feed at startup must degrade to the last checkpoint instead of
// refusing to start.
func TestRunRecoversFromCheckpoint(t *testing.T) {
	good := t.TempDir()
	writeReports(t, good)
	ckpt := filepath.Join(t.TempDir(), "tracker.ckpt")
	if err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0", "-reports", good, "-checkpoint", ckpt,
		"-threshold", "0.5", "-selfcheck", "1",
	}); err != nil {
		t.Fatal(err)
	}

	// Same daemon, but the feed directory is now garbage.
	dead := t.TempDir()
	if err := os.WriteFile(filepath.Join(dead, "junk"+report.Ext), []byte("not a report"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0", "-reports", dead, "-checkpoint", ckpt,
		"-threshold", "0.5", "-selfcheck", "1",
	}); err != nil {
		t.Fatalf("run with dead feed + checkpoint: %v", err)
	}

	// Without the checkpoint the same dead feed is fatal.
	if err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0", "-reports", dead,
		"-threshold", "0.5", "-selfcheck", "1",
	}); err == nil {
		t.Fatal("dead feed with no checkpoint accepted")
	}
}

// A startup ingest failure with -bundle-dir set leaves exactly one
// fatal bundle; its flight ring holds the feed-load rejection and ends
// with the crash event.
func TestRunFatalStartupLeavesOneBundle(t *testing.T) {
	dead := t.TempDir()
	if err := os.WriteFile(filepath.Join(dead, "junk"+report.Ext), []byte("not a report"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0", "-reports", dead, "-selfcheck", "1", "-bundle-dir", dir,
	}); err == nil {
		t.Fatal("dead feed with no checkpoint accepted")
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(paths) != 1 || !strings.Contains(filepath.Base(paths[0]), "-fatal-") {
		t.Fatalf("bundle dir holds %v (%v), want one fatal bundle", paths, err)
	}
	b, err := bundle.Open(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.Manifest.Reason, "fatal: ") {
		t.Errorf("bundle reason = %q, want fatal: ...", b.Manifest.Reason)
	}
	var doc flight.EventsDoc
	if err := json.Unmarshal(b.File(bundle.FlightName), &doc); err != nil || len(doc.Events) == 0 {
		t.Fatalf("flight.json unreadable or empty: %v", err)
	}
	rejected := false
	for _, ev := range doc.Events {
		rejected = rejected || ev.Kind == "feed_load" && ev.Verdict == "rejected" && ev.Name == dead
	}
	if last := doc.Events[len(doc.Events)-1]; !rejected || last.Kind != "server" || last.Verdict != "crash" {
		t.Errorf("flight.json: feed rejection recorded %v, last event %+v; want the rejection and a final server/crash",
			rejected, last)
	}
}

// In serving mode a context cancellation (the signal path) must shut
// down gracefully: run returns nil, and the checkpoint the last load
// wrote is on disk.
func TestRunGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)
	ckpt := filepath.Join(t.TempDir(), "tracker.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-reports", dir, "-checkpoint", ckpt,
			"-threshold", "0.5", "-selfcheck", "0", "-reload", "10m",
		})
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down after cancel")
	}
	if _, err := tracker.LoadFile(ckpt); err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
}

// reservePort grabs a free loopback TCP port; the caller closes the
// listener and hands the address to the daemon under test.
func reservePort(t *testing.T) (string, func(), error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return ln.Addr().String(), func() { ln.Close() }, nil
}

// The diagnostic mux must serve the surfaces the -metrics flag
// advertises: Prometheus text, JSON exposition, health, the mesh's
// status, the flight ring, pprof, and expvar.
func TestMetricsMuxEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("unclean_test_mux_total", "mux test counter").Add(7)
	batch := feedmesh.Batch{Addrs: ipset.MustParse("10.1.1.1 10.1.1.2")}
	mesh, err := feedmesh.New(feedmesh.DefaultConfig(),
		feedmesh.SourceFunc("alpha", func(context.Context) (feedmesh.Batch, error) { return batch, nil }),
		feedmesh.SourceFunc("beta", func(context.Context) (feedmesh.Batch, error) { return batch, nil }))
	if err != nil {
		t.Fatal(err)
	}
	mesh.Tick(context.Background())
	mux := metricsMux(nil, nil, mesh, nil, nil, reg)

	get := func(path string) (*http.Response, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		res := rec.Result()
		body, _ := io.ReadAll(res.Body)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, res.StatusCode, body)
		}
		return res, string(body)
	}

	res, body := get("/metrics")
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	if !strings.Contains(body, "# TYPE unclean_test_mux_total counter") ||
		!strings.Contains(body, "unclean_test_mux_total 7") {
		t.Errorf("/metrics missing test series:\n%s", body)
	}

	res, body = get("/metrics.json")
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/metrics.json Content-Type = %q, want application/json", ct)
	}
	var doc obs.MetricsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/metrics.json not JSON: %v\n%s", err, body)
	}
	if len(doc.Metrics) == 0 {
		t.Error("/metrics.json has no metrics")
	}

	_, body = get("/healthz")
	if body != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}

	res, body = get("/readyz")
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/readyz Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(body, `"ready": true`) {
		t.Errorf("/readyz with no checks not ready:\n%s", body)
	}

	res, body = get("/debug/mesh")
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/debug/mesh Content-Type = %q, want application/json", ct)
	}
	var st feedmesh.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/debug/mesh is not a feedmesh.Status: %v\n%s", err, body)
	}
	if st.Round != 1 || st.HealthyFeeds != 2 || st.TotalFeeds != 2 || st.MergedBlocks != 1 ||
		len(st.Feeds) != 2 || st.Feeds[0].Name != "alpha" || st.Feeds[0].Health() != "healthy" {
		t.Errorf("/debug/mesh decoded to %+v, want round 1 of two healthy feeds merging one block", st)
	}

	res, body = get("/debug/events")
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/debug/events Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(body, `"events"`) {
		t.Errorf("/debug/events missing events field:\n%.200s", body)
	}

	_, body = get("/debug/vars")
	if !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars missing memstats:\n%.200s", body)
	}

	_, body = get("/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing goroutine profile:\n%.200s", body)
	}
}

// End to end: a serving daemon with -metrics exposes its per-zone query
// counters over HTTP while it runs.
func TestRunServesMetrics(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)

	addr, stop, err := reservePort(t)
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	stop()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-reports", dir,
			"-threshold", "0.5", "-selfcheck", "0", "-metrics", addr,
		})
	}()

	var body string
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			b, _ := io.ReadAll(res.Body)
			res.Body.Close()
			body = string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics endpoint never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(body, `unclean_dnsbl_queries_total{zone="bl.unclean.example"}`) {
		t.Errorf("scrape missing per-zone query counter:\n%.500s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down after cancel")
	}
}

// End to end across the whole observability surface: a serving daemon
// answers real UDP queries, /readyz reports it ready, a broken feed
// trips its breaker and is quarantined, which leaves the one-feed mesh
// on its last-good list and flips /readyz to 503 — and the queries
// served earlier read back out of /debug/events with their client and
// verdict, followed by the breaker trip and the watchdog's
// mesh-quarantine trigger on the same timeline.
func TestRunReadinessFlipsAndEventsReadBack(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)

	addr, stop, err := reservePort(t)
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	stop()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-reports", dir,
			"-threshold", "0.5", "-selfcheck", "0", "-metrics", addr,
			"-reload", "30ms", "-watchdog", "20ms",
		})
	}()
	defer func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Error("run did not shut down after cancel")
		}
	}()

	getReady := func() (int, obs.ReadyDoc, error) {
		res, err := http.Get("http://" + addr + "/readyz")
		if err != nil {
			return 0, obs.ReadyDoc{}, err
		}
		defer res.Body.Close()
		var doc obs.ReadyDoc
		if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
			return res.StatusCode, doc, err
		}
		return res.StatusCode, doc, nil
	}

	// Phase 1: the daemon comes up ready, advertising its UDP address.
	var udpAddr string
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, doc, err := getReady()
		if err == nil && code == http.StatusOK && doc.Ready {
			udpAddr = doc.Info["udp_addr"]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became ready: code=%d err=%v", code, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if udpAddr == "" {
		t.Fatal("/readyz info missing udp_addr")
	}

	// Phase 2: real queries through the UDP socket /readyz advertised.
	// A shard records a wide event for one in 64 healthy answers, so
	// each probe is asked 64 times in a row from one client socket: one
	// 4-tuple lands on one shard, and 64 consecutive packets there hold
	// exactly one sampled answer.
	client, err := net.Dial("udp", udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	buf := make([]byte, 512)
	ask := func(id uint16, probe string) bool {
		t.Helper()
		q := &dnsbl.Message{ID: id, Questions: []dnsbl.Question{{
			Name: dnsbl.QueryName(netaddr.MustParseAddr(probe), "bl.unclean.example"),
			Type: dnsbl.TypeA, Class: dnsbl.ClassIN,
		}}}
		pkt, err := q.Encode()
		if err != nil {
			t.Fatal(err)
		}
		client.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := client.Write(pkt); err != nil {
			t.Fatal(err)
		}
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("query %s: %v", probe, err)
		}
		resp, err := dnsbl.Decode(buf[:n])
		if err != nil || resp.ID != id {
			t.Fatalf("query %s: bad response (err=%v)", probe, err)
		}
		return resp.RCode != dnsbl.RCodeNXDomain
	}
	for i := 0; i < 64; i++ {
		if !ask(uint16(1+i), "10.1.1.9") {
			t.Fatal("lookup listed probe: not listed")
		}
	}
	for i := 0; i < 64; i++ {
		if ask(uint16(65+i), "192.0.2.1") {
			t.Fatal("lookup unlisted probe: listed")
		}
	}

	// Phase 3: the feed goes bad; the lone feed is quarantined, the mesh
	// keeps its last-good list, and readiness must flip.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk"+report.Ext), []byte("not a report"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		code, doc, err := getReady()
		if c, ok := doc.Checks["feed_mesh"]; err == nil && code == http.StatusServiceUnavailable && ok && !c.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readiness never flipped on quarantine: code=%d checks=%+v err=%v",
				code, doc.Checks, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Phase 4: the queries served in phase 2 read back from the flight
	// recorder, client and verdict intact, and the breaker trip is on the
	// same timeline. Within a watchdog tick of the quarantine, the
	// mesh-quarantine rule fires on the growth of the series it reads.
	// Under load the watchdog can fire on the quarantine before the
	// breaker's open event is in the ring, so poll until every event is
	// in, not only the trigger.
	var events flight.EventsDoc
	var sawHit, sawMiss, sawTrip, sawTrigger bool
	for deadline = time.Now().Add(5 * time.Second); !(sawHit && sawMiss && sawTrip && sawTrigger) && time.Now().Before(deadline); {
		res, err := http.Get("http://" + addr + "/debug/events?n=0")
		if err != nil {
			t.Fatal(err)
		}
		events = flight.EventsDoc{}
		err = json.NewDecoder(res.Body).Decode(&events)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events.Events {
			if e.Kind == "query" && e.Verdict == "hit" && e.Addr == "10.1.1.9" &&
				strings.HasPrefix(e.Client, "127.0.0.1") {
				sawHit = true
			}
			if e.Kind == "query" && e.Verdict == "miss" {
				sawMiss = true
			}
			if e.Kind == "breaker" && e.Verdict == "open" {
				sawTrip = true
			}
			if e.Kind == "watchdog" && e.Verdict == "trigger" && e.Name == "mesh-quarantine" &&
				strings.HasPrefix(e.Detail, "unclean_feedmesh_quarantines_total=") {
				sawTrigger = true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !sawHit || !sawMiss || !sawTrip || !sawTrigger {
		t.Errorf("flight ring missing events: hit=%v miss=%v trip=%v mesh-quarantine trigger=%v (%d events)",
			sawHit, sawMiss, sawTrip, sawTrigger, len(events.Events))
	}
}

// A watchdog rule over a series the daemon does not expose (a retired
// signal name, or a typo) stops the daemon at startup, naming the rule
// and the series, instead of never firing.
func TestRunRefusesUnexposedWatchSeries(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)
	for _, rule := range []string{
		"shed: dnsbl_shed_frac_1m > 0.2 hold=3",
		"ghost: no_such_series > 1",
	} {
		err := run(context.Background(), []string{
			"-listen", "127.0.0.1:0", "-reports", dir, "-threshold", "0.5", "-selfcheck", "1",
			"-watch", rule,
		})
		name, rest, _ := strings.Cut(rule, ":")
		series := strings.Fields(rest)[0]
		if err == nil || !strings.Contains(err.Error(), "rule "+name) || !strings.Contains(err.Error(), series) {
			t.Errorf("-watch %q: err = %v, want one naming rule %s and series %s", rule, err, name, series)
		}
	}
}

// Each mode's default rules read series its registries expose (the
// reports-mode and mesh-mode e2e tests start with them installed);
// world mode installs exactly the rules of reports mode without -reload,
// and every mode adds the two mesh rules once its feeds reload.
func TestDefaultWatchRulesPerMode(t *testing.T) {
	names := func(args ...string) string {
		o, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range defaultWatchRules(o) {
			out = append(out, r.String())
		}
		return strings.Join(out, "\n")
	}
	world, reports := names(), names("-reports", "dir")
	if world != reports {
		t.Errorf("world-mode rules:\n%s\nwant the reports-mode rules:\n%s", world, reports)
	}
	want := reports + "\nmesh-quarantine: unclean_feedmesh_quarantines_total > 0 over=1 cooldown=5m0s" +
		"\nmesh-degraded: unclean_feedmesh_degraded >= 1 hold=2 cooldown=10m0s"
	for _, args := range [][]string{
		{"-reports", "dir", "-reload", "1s"},
		{"-feed", "a=x", "-reload", "1s"},
		{"-reload", "1s"},
	} {
		if got := names(args...); got != want {
			t.Errorf("rules for %v:\n%s\nwant\n%s", args, got, want)
		}
	}
	if !strings.Contains(reports, `shed: unclean_dnsbl_shed_1m_permille{zone="bl.unclean.example"} > 200 hold=3`) {
		t.Errorf("shed rule does not read the zone's permille series:\n%s", reports)
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	bad := [][]string{
		{"-scale", "0"},
		{"-threshold", "1.5"},
		{"-log-format", "xml"},
		{"-log-level", "verbose"},
		// Below the documented sentinels: typos, not modes.
		{"-shards", "-1"},
		{"-shards", "-2"},
		{"-batch", "-1"},
		{"-reload", "-1s"},
		{"-selfcheck", "-1"},
		{"-mesh-threshold", "0"},
		{"-mesh-threshold", "1.1"},
		// The shard's sampling tick is 32 bits: no rate above 2^32.
		{"-analytics-sample", "4294967297"},
		{"-analytics-sample", "4611686018427387905"},
		// Mesh flag shape and exclusivity.
		{"-feed", "nameonly", "-reload", "1s"},
		{"-feed", "=path", "-reload", "1s"},
		{"-feed", "a=", "-reload", "1s"},
		{"-feed", "a=x", "-feed", "a=y", "-reload", "1s"},
		{"-feed", "a=x"}, // mesh without -reload has no poll cadence
		{"-feed", "a=x", "-reload", "1s", "-reports", "dir"},
		{"-feed", "a=x", "-reload", "1s", "-checkpoint", "ckpt"},
		{"-checkpoint", "ckpt"}, // only the -reports tracker is checkpointed
		// Thresholds the watchdog cannot compare against.
		{"-watch", "r: unclean_runtime_goroutines > NaN"},
		{"-watch", "r: unclean_runtime_goroutines > Inf"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted, want error", args)
		}
	}

	// The sentinels themselves stay legal.
	good := [][]string{
		{"-shards", "0"},
		{"-batch", "0"},
		{"-reload", "0"},
		{"-feed", "a=x", "-feed", "b=y", "-reload", "1s"},
		{"-analytics-sample", "4294967296"},
	}
	for _, args := range good {
		if _, err := parseFlags(args); err != nil {
			t.Errorf("parseFlags(%v): %v", args, err)
		}
	}
	if _, err := parseFlags([]string{"-analytics-sample", "4294967297"}); err == nil || !strings.Contains(err.Error(), "at most 4294967296") {
		t.Errorf("-analytics-sample over the bound: error %v does not name the bound", err)
	}

	if o, err := parseFlags([]string{"-log-format", "json", "-log-level", "debug"}); err != nil {
		t.Errorf("valid log flags rejected: %v", err)
	} else if o.logFormat != "json" || o.logLevel != "debug" {
		t.Errorf("log flags lost: %+v", o)
	}
}

// TestRunShardedSelfcheckWithTCP boots the daemon on the sharded
// batched path with a TCP listener beside it on the same address, so
// the selfcheck lookups travel the whole line-rate stack over
// SO_REUSEPORT shards while the TCP listener starts and drains with
// them.
func TestRunShardedSelfcheckWithTCP(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)
	err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0", "-reports", dir, "-threshold", "0.5",
		"-selfcheck", "2", "-shards", "2", "-batch", "8", "-tcp",
	})
	if err != nil {
		t.Fatalf("sharded selfcheck with TCP retry: %v", err)
	}
}

// End to end through the feed mesh: two feeds serve, one dies, and the
// daemon keeps answering from the survivor while /readyz names the
// quarantined feed and /metrics exposes the per-feed health series.
func TestRunMeshModeSurvivesDeadFeed(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	writeReports(t, dirA)
	writeReports(t, dirB)

	// A feed path that never existed is a config error, not a quarantine
	// case: the daemon must refuse to start.
	if err := run(context.Background(), []string{
		"-listen", "127.0.0.1:0", "-feed", "ghost=/nonexistent/feed", "-reload", "1s",
	}); err == nil {
		t.Fatal("nonexistent feed path accepted at startup")
	}

	addr, stop, err := reservePort(t)
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	stop()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-metrics", addr,
			"-feed", "alpha=" + dirA, "-feed", "beta=" + dirB,
			"-reload", "30ms", "-selfcheck", "0",
		})
	}()
	defer func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Error("mesh run did not shut down after cancel")
		}
	}()

	getReady := func() (int, obs.ReadyDoc, error) {
		res, err := http.Get("http://" + addr + "/readyz")
		if err != nil {
			return 0, obs.ReadyDoc{}, err
		}
		defer res.Body.Close()
		var doc obs.ReadyDoc
		if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
			return res.StatusCode, doc, err
		}
		return res.StatusCode, doc, nil
	}

	// Phase 1: up and ready, with the mesh check reporting both feeds.
	var udpAddr string
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, doc, err := getReady()
		if err == nil && code == http.StatusOK && doc.Ready {
			if c, ok := doc.Checks["feed_mesh"]; !ok || !strings.Contains(c.Detail, "2/2 feeds healthy") {
				t.Fatalf("feed_mesh check missing or wrong: %+v", doc.Checks)
			}
			udpAddr = doc.Info["udp_addr"]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh daemon never became ready: code=%d err=%v", code, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Phase 2: both feeds vouch for 10.1.1.0/24, so it serves as listed.
	listed, _, err := dnsbl.Lookup(udpAddr, "bl.unclean.example",
		netaddr.MustParseAddr("10.1.1.9"), 2*time.Second)
	if err != nil || !listed {
		t.Fatalf("mesh lookup listed probe: listed=%v err=%v", listed, err)
	}

	// Phase 3: feed beta turns to garbage. The mesh quarantines it, but
	// with half the feeds still healthy the daemon stays ready and keeps
	// serving alpha's contribution.
	if err := os.RemoveAll(dirB); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dirB, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, "junk"+report.Ext), []byte("not a report"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(20 * time.Second)
	for {
		code, doc, err := getReady()
		if err == nil && code == http.StatusOK && doc.Ready &&
			strings.Contains(doc.Checks["feed_mesh"].Detail, "beta=quarantined") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("beta never quarantined while staying ready: code=%d checks=%+v err=%v",
				code, doc.Checks, err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// /debug/mesh serves the same verdict as the readiness detail: read
	// one after the other, they agree on every feed the detail names,
	// and alpha, which it does not name, counts as healthy.
	res, err := http.Get("http://" + addr + "/debug/mesh")
	if err != nil {
		t.Fatal(err)
	}
	var st feedmesh.Status
	err = json.NewDecoder(res.Body).Decode(&st)
	res.Body.Close()
	if err != nil {
		t.Fatalf("/debug/mesh is not a feedmesh.Status: %v", err)
	}
	_, doc, err := getReady()
	if err != nil {
		t.Fatal(err)
	}
	detail := doc.Checks["feed_mesh"].Detail
	labels := map[string]string{}
	for _, f := range st.Feeds {
		labels[f.Name] = f.Health()
	}
	if labels["beta"] != "quarantined" || !strings.Contains(detail, "beta="+labels["beta"]) {
		t.Errorf("/debug/mesh labels beta %q; /readyz feed_mesh reads %q", labels["beta"], detail)
	}
	if labels["alpha"] != "healthy" || strings.Contains(detail, "alpha=") {
		t.Errorf("/debug/mesh labels alpha %q; /readyz feed_mesh reads %q", labels["alpha"], detail)
	}
	listed, _, err = dnsbl.Lookup(udpAddr, "bl.unclean.example",
		netaddr.MustParseAddr("10.1.1.9"), 2*time.Second)
	if err != nil || !listed {
		t.Fatalf("lookup after beta died: listed=%v err=%v", listed, err)
	}

	// Phase 4: the per-feed health series ride the metrics endpoint.
	res, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(res.Body)
	res.Body.Close()
	body := string(b)
	for _, series := range []string{
		`unclean_feedmesh_quality_permille{feed="alpha"}`,
		`unclean_feedmesh_state{feed="beta"}`,
		"unclean_feedmesh_quarantines_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics scrape missing %s", series)
		}
	}
}

// One shard per core, with the TCP listener beside it, must also shut
// down gracefully from serving mode.
func TestRunShardedGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0", "-reports", dir, "-threshold", "0.5",
			"-selfcheck", "0", "-shards", "0", "-tcp",
		})
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sharded run did not shut down after cancel")
	}
}

// The acceptance path for the analytics scoreboard: a running daemon
// answers queries for not-yet-listed addresses, the feed then lists
// them, and the next reload's sweep reports them as confirmed
// predictions on /debug/topk and /metrics with sane lag quantiles.
func TestRunAnalyticsScoreboardEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)

	// Reserve loopback ports for the UDP serving socket and the metrics
	// listener, then hand them to the daemon.
	uc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	udpAddr := uc.LocalAddr().String()
	uc.Close()
	maddr, release, err := reservePort(t)
	if err != nil {
		t.Fatal(err)
	}
	release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", udpAddr, "-reports", dir, "-reload", "200ms",
			"-threshold", "0.5", "-selfcheck", "0", "-shards", "1",
			"-metrics", maddr, "-analytics-sample", "1",
		})
	}()
	defer func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("run did not shut down after cancel")
		}
	}()

	// Wait for the daemon to come up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if res, err := http.Get("http://" + maddr + "/healthz"); err == nil {
			res.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Query addresses the list does not contain yet — these land in the
	// prediction rings as misses.
	for _, probe := range []string{"10.9.9.1", "10.9.9.2", "10.9.9.3"} {
		listed, _, err := dnsbl.Lookup(udpAddr, "bl.unclean.example", netaddr.MustParseAddr(probe), 2*time.Second)
		if err != nil {
			t.Fatalf("lookup %s: %v", probe, err)
		}
		if listed {
			t.Fatalf("%s listed before the feed update", probe)
		}
	}

	// The feed catches up: a new report lists the queried /24.
	inv := &report.Inventory{}
	inv.Add(testReport("bot-late", report.ClassBots, "darknet",
		"10.9.9.1 10.9.9.2 10.9.9.3 10.9.9.4 10.9.9.5 10.9.9.6 10.9.9.7 10.9.9.8"))
	if err := inv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	// The next reload sweep must confirm the three predictions.
	var doc dnsbl.TopKDoc
	for {
		res, err := http.Get("http://" + maddr + "/debug/topk")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/debug/topk not JSON: %v\n%s", err, body)
		}
		if doc.Prediction.Predicted >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("predictions never confirmed: %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	lag, err := time.ParseDuration(doc.Prediction.LagP50)
	if err != nil || lag <= 0 || lag > time.Minute {
		t.Fatalf("lag_p50 = %q, want a sane positive duration", doc.Prediction.LagP50)
	}

	// The same counters ride the Prometheus surface.
	res, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	text := string(body)
	for _, series := range []string{
		"unclean_analytics_predicted_total", "unclean_analytics_sweeps_total",
		"unclean_analytics_sampled_total", "unclean_analytics_prediction_lag_seconds",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

// A shutdown that lands while a reload is in flight must still take the
// graceful path. With a 1ms reload the loop is nearly always inside a
// reload when the context is cancelled, so by its next select both the
// cancellation and the serve loop's nil return are ready; run must drain
// and return nil whichever it picks, leaving a readable checkpoint.
func TestRunShutdownDuringReload(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)
	for i := 0; i < 20; i++ {
		ckpt := filepath.Join(t.TempDir(), "tracker.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		stop := time.AfterFunc(time.Duration(20+i)*time.Millisecond, cancel)
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("run %d panicked on shutdown: %v", i, r)
				}
			}()
			err = run(ctx, []string{
				"-listen", "127.0.0.1:0", "-reports", dir, "-checkpoint", ckpt,
				"-threshold", "0.5", "-selfcheck", "0", "-reload", "1ms",
			})
		}()
		stop.Stop()
		cancel()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if _, err := tracker.LoadFile(ckpt); err != nil {
			t.Fatalf("run %d: final checkpoint unreadable: %v", i, err)
		}
	}
}

// serveAndLookup runs the daemon with args on a reserved UDP port, asks
// it about each probe, and shuts it down. It returns the answer code per
// probe (0 when not listed).
func serveAndLookup(t *testing.T, args []string, probes ...string) []netaddr.Addr {
	t.Helper()
	uc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	udpAddr := uc.LocalAddr().String()
	uc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-listen", udpAddr, "-selfcheck", "0", "-shards", "1"}, args...))
	}()
	defer func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run %v: %v", args, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("run %v did not shut down after cancel", args)
		}
	}()
	codes := make([]netaddr.Addr, len(probes))
	for i, p := range probes {
		listed, code, err := dnsbl.Lookup(udpAddr, "bl.unclean.example", netaddr.MustParseAddr(p), 2*time.Second)
		if err != nil {
			t.Fatalf("run %v: lookup %s: %v", args, p, err)
		}
		if listed {
			codes[i] = code
		}
	}
	return codes
}

// One report directory yields one list: served as the -reports feed or
// as two -feed directories, every block answers with the code of its
// dominant dimension.
func TestRunOneDirectoryOneList(t *testing.T) {
	dir := t.TempDir()
	writeReports(t, dir)
	probes := []string{"10.1.1.9", "10.2.2.77"}
	want := []netaddr.Addr{dnsbl.CodeBot, dnsbl.CodeSpam}
	for _, args := range [][]string{
		{"-reports", dir},
		{"-feed", "a=" + dir, "-feed", "b=" + dir, "-reload", "1h"},
	} {
		got := serveAndLookup(t, args, probes...)
		for i := range probes {
			if got[i] != want[i] {
				t.Errorf("%v: %s answered %s, want %s", args, probes[i], got[i], want[i])
			}
		}
	}
}

// A load that hangs never fails, so no breaker sees it; readiness still
// fails once no feed has loaded for two reload intervals.
func TestHungLoadFailsReadiness(t *testing.T) {
	o, err := parseFlags([]string{"-feed", "hang=x", "-reload", "20ms"})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var loads atomic.Int32
	src := feedmesh.SourceFunc("hang", func(ctx context.Context) (feedmesh.Batch, error) {
		if loads.Add(1) > 1 {
			<-release
		}
		return feedmesh.Batch{Addrs: ipset.MustParse("10.1.1.1")}, nil
	})
	cfg := feedmesh.DefaultConfig()
	cfg.Interval = o.reload
	mesh, err := feedmesh.New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := firstRound(context.Background(), mesh); err != nil {
		t.Fatal(err)
	}
	srv, err := dnsbl.NewServer(o.zone, mesh.List(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	health := buildHealth(o, srv, mesh)
	if doc := health.Ready(); !doc.Ready {
		t.Fatalf("not ready after a load: %+v", doc.Checks)
	}
	hung := make(chan struct{})
	go func() {
		defer close(hung)
		mesh.Tick(context.Background())
	}()
	defer func() {
		close(release)
		<-hung
	}()
	for deadline := time.Now().Add(2 * time.Second); ; {
		doc := health.Ready()
		if c := doc.Checks["feed_fresh"]; !doc.Ready && !c.OK && strings.HasPrefix(c.Detail, "last successful load") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readiness never failed while the load hung: %+v", doc.Checks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A first round in which no feed loads is fatal in every mode: the
// daemon has nothing to serve.
func TestRunNoFeedLoadedIsFatal(t *testing.T) {
	dead := t.TempDir()
	if err := os.WriteFile(filepath.Join(dead, "junk"+report.Ext), []byte("not a report"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-reports", dead},
		{"-feed", "a=" + dead, "-feed", "b=" + dead, "-reload", "1h"},
	} {
		err := run(context.Background(), append([]string{"-listen", "127.0.0.1:0", "-selfcheck", "1"}, args...))
		if err == nil || !strings.Contains(err.Error(), "no feed loaded") {
			t.Errorf("%v: err = %v, want no feed loaded", args, err)
		}
	}
}
