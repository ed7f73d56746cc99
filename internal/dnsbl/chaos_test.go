package dnsbl

// Chaos harness: drives the full dnsbld pipeline — report ingestion →
// tracker → blocklist → UDP serving — through deterministic, seeded
// fault injection. Every run with the same seeds exercises the same
// drops, torn writes, and crashes, so a failure here is reproducible by
// re-running the test, not a flake to retry.

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unclean/internal/atomicfile"
	"unclean/internal/blocklist"
	"unclean/internal/core"
	"unclean/internal/faults"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/obs/bundle"
	"unclean/internal/obs/flight"
	"unclean/internal/report"
	"unclean/internal/retry"
	"unclean/internal/stats"
	"unclean/internal/tracker"
)

// chaosTracker ingests two reports into a fresh tracker: bots in
// 10.1.1.0/24 and spam in 10.2.2.0/24, both with enough evidence
// (8 addresses, score 1-e^-2 ≈ 0.86) to clear a 0.5 threshold.
func chaosTracker(t *testing.T) *tracker.Tracker {
	t.Helper()
	tr, err := tracker.New(tracker.Config{Bits: 24, HalfLife: 42 * 24 * time.Hour, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2006, 10, 14, 0, 0, 0, 0, time.UTC)
	bots := ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4 10.1.1.5 10.1.1.6 10.1.1.7 10.1.1.8")
	spam := ipset.MustParse("10.2.2.1 10.2.2.2 10.2.2.3 10.2.2.4 10.2.2.5 10.2.2.6 10.2.2.7 10.2.2.8")
	if err := tr.Observe(core.DimBot, bots, day); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(core.DimSpam, spam, day); err != nil {
		t.Fatal(err)
	}
	return tr
}

func chaosList(tr *tracker.Tracker) *blocklist.Trie {
	list := &blocklist.Trie{}
	for _, b := range tr.Blocklist(0.5).Blocks(24) {
		list.Insert(b, "chaos")
	}
	return list
}

// startChaosServer serves list over a fault-injecting wrapper of a real
// loopback UDP socket and returns the address plus a drain-and-stop
// function.
func startChaosServer(t *testing.T, list *blocklist.Trie, cfg faults.ConnConfig, seed uint64) (string, func()) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := faults.NewFlakyConn(conn, cfg, seed)
	srv, err := NewServer("bl.chaos.example", list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeConns(ctx, []net.PacketConn{flaky}, ShardConfig{}) }()
	stop := func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeConns: %v", err)
		}
		conn.Close()
	}
	return conn.LocalAddr().String(), stop
}

// TestChaosLookupsSurviveFaultyNetwork is the headline chaos run: with
// the server's socket dropping a quarter of queries and a quarter of
// responses (seeded, deterministic), every lookup must still come back
// correct — the client's retry policy absorbs the loss.
func TestChaosLookupsSurviveFaultyNetwork(t *testing.T) {
	tr := chaosTracker(t)
	list := chaosList(tr)
	if list.Len() != 2 {
		t.Fatalf("chaos list has %d rules, want 2", list.Len())
	}
	addr, stop := startChaosServer(t, list, faults.ConnConfig{
		DropRead:   0.25,
		DropWrite:  0.25,
		MaxLatency: 2 * time.Millisecond,
	}, 20061014)
	defer stop()

	p := retry.Policy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond,
		MaxDelay: 40 * time.Millisecond, Jitter: 1, RNG: stats.NewRNG(7)}
	probes := []struct {
		addr   netaddr.Addr
		listed bool
	}{
		{netaddr.MustParseAddr("10.1.1.9"), true},
		{netaddr.MustParseAddr("10.1.1.200"), true},
		{netaddr.MustParseAddr("10.2.2.42"), true},
		{netaddr.MustParseAddr("10.3.3.3"), false},
		{netaddr.MustParseAddr("192.0.2.1"), false},
		{netaddr.MustParseAddr("10.2.3.1"), false},
	}
	for _, pr := range probes {
		listed, _, err := LookupCtx(context.Background(), addr, "bl.chaos.example",
			pr.addr, 200*time.Millisecond, p)
		if err != nil {
			t.Fatalf("lookup %s under faults: %v", pr.addr, err)
		}
		if listed != pr.listed {
			t.Errorf("lookup %s = %v, want %v", pr.addr, listed, pr.listed)
		}
	}
}

// TestChaosIngestSurvivesTornFeed runs the ingestion leg under faults: a
// feed directory holding a torn report (a non-atomic producer caught
// mid-write) heals between retry attempts, and the resulting blocklist
// serves correctly.
func TestChaosIngestSurvivesTornFeed(t *testing.T) {
	dir := t.TempDir()
	inv := &report.Inventory{}
	inv.Add(&report.Report{Tag: "bot", Type: report.Observed, Class: report.ClassBots, Method: "darknet",
		ValidFrom: time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC), ValidTo: time.Date(2006, 10, 14, 0, 0, 0, 0, time.UTC),
		Addrs: ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4 10.1.1.5 10.1.1.6 10.1.1.7 10.1.1.8")})
	if err := inv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn"+report.Ext)
	if err := os.WriteFile(torn, []byte("# unclean report v1\ntag: torn\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	p := retry.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			if attempts++; attempts >= 2 {
				os.Remove(torn) // the producer finishes its write
			}
			return nil
		}}
	got, err := report.LoadDirRetry(context.Background(), p, dir)
	if err != nil {
		t.Fatal(err)
	}

	tr, err := tracker.New(tracker.Config{Bits: 24, HalfLife: 42 * 24 * time.Hour, Tau: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got.Reports {
		if err := tr.Observe(core.DimBot, r.Addrs, r.ValidTo); err != nil {
			t.Fatal(err)
		}
	}
	addr, stop := startChaosServer(t, chaosList(tr), faults.ConnConfig{}, 1)
	defer stop()
	listed, _, err := Lookup(addr, "bl.chaos.example", netaddr.MustParseAddr("10.1.1.77"), time.Second)
	if err != nil || !listed {
		t.Fatalf("lookup after healed ingest: listed=%v err=%v", listed, err)
	}
}

// TestChaosCrashRecoveryAtEveryPoint kills the checkpoint write at every
// injected crash point and proves the daemon's restart path always
// recovers a coherent tracker — the last acknowledged state or the
// completed new one, never a torn hybrid — and serves correctly from it.
func TestChaosCrashRecoveryAtEveryPoint(t *testing.T) {
	day := time.Date(2006, 10, 20, 0, 0, 0, 0, time.UTC)
	extra := ipset.MustParse("10.3.3.1 10.3.3.2 10.3.3.3 10.3.3.4 10.3.3.5 10.3.3.6 10.3.3.7 10.3.3.8")
	for k := 0; ; k++ {
		path := filepath.Join(t.TempDir(), "tracker.ckpt")

		// Acknowledged generation: 2 blocks, written cleanly.
		old := chaosTracker(t)
		if err := old.SaveFile(path); err != nil {
			t.Fatal(err)
		}

		// New generation: a third block observed; the write crashes at
		// injected point k.
		next := chaosTracker(t)
		if err := next.Observe(core.DimScan, extra, day); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := next.Save(&buf); err != nil {
			t.Fatal(err)
		}
		crash := faults.CrashAt(k)
		werr := atomicfile.WriteCheckpointHook(path, buf.Bytes(), crash.Step)
		if !crash.Tripped() {
			// k exceeded the number of crash points; the write completed
			// and the matrix is exhausted.
			if werr != nil {
				t.Fatalf("fault-free write failed: %v", werr)
			}
			break
		}

		// Restart: recovery must yield old (2 blocks) or new (3 blocks).
		rec, err := tracker.LoadFile(path)
		if err != nil {
			t.Fatalf("crash point %d: recovery failed: %v", k, err)
		}
		switch rec.BlockCount() {
		case 2, 3:
		default:
			t.Fatalf("crash point %d: recovered %d blocks, want 2 or 3", k, rec.BlockCount())
		}
		if werr == nil && rec.BlockCount() != 3 {
			t.Fatalf("crash point %d: write acknowledged but old state recovered", k)
		}

		// The recovered tracker must serve: blocks from the acknowledged
		// generation are always present.
		addr, stop := startChaosServer(t, chaosList(rec), faults.ConnConfig{}, uint64(k))
		listed, _, err := Lookup(addr, "bl.chaos.example", netaddr.MustParseAddr("10.1.1.9"), time.Second)
		stop()
		if err != nil || !listed {
			t.Fatalf("crash point %d: recovered server lookup: listed=%v err=%v", k, listed, err)
		}
	}
}

// TestChaosCrashAtCheckpointLeavesReadableBundle kills a checkpoint
// write mid-flight and drives the daemon's crash path (bundle.HandleCrash
// → capture → re-panic): the one bundle on disk must be readable —
// atomicfile guarantees it is complete or absent, never torn — and its
// flight.json must hold the pre-crash checkpoint event plus the terminal
// crash event, so a post-mortem can see what the process was doing when
// it died.
func TestChaosCrashAtCheckpointLeavesReadableBundle(t *testing.T) {
	bundleDir := t.TempDir()
	capture := func() bundle.CaptureConfig { return bundle.CaptureConfig{Flight: flight.Default()} }

	// One clean save first, so the ring holds a "saved" checkpoint event
	// and the on-disk state has an acknowledged generation to recover.
	tr := chaosTracker(t)
	ckpt := filepath.Join(t.TempDir(), "tracker.ckpt")
	if err := tr.SaveFile(ckpt); err != nil {
		t.Fatal(err)
	}

	// The next write dies at its first injected crash point; the daemon
	// turns that into a panic that HandleCrash intercepts.
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	crash := faults.CrashAt(0)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("HandleCrash swallowed the panic")
			}
		}()
		var err error
		defer bundle.HandleCrash(bundleDir, capture, &err)
		if err := atomicfile.WriteCheckpointHook(ckpt, buf.Bytes(), crash.Step); err != nil {
			panic(err)
		}
	}()
	if !crash.Tripped() {
		t.Fatal("crash point 0 never fired")
	}

	paths, err := filepath.Glob(filepath.Join(bundleDir, "bundle-*.tar.gz"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("crash bundles = %v (%v), want exactly one", paths, err)
	}
	b, err := bundle.Open(paths[0])
	if err != nil {
		t.Fatalf("crash bundle unreadable: %v", err)
	}
	if !strings.HasPrefix(b.Manifest.Reason, "panic: ") {
		t.Errorf("bundle reason = %q, want a panic reason", b.Manifest.Reason)
	}
	var dump flight.EventsDoc
	if err := json.Unmarshal(b.File(bundle.FlightName), &dump); err != nil || len(dump.Events) == 0 {
		t.Fatalf("flight.json unreadable or empty: %v", err)
	}
	var sawSave bool
	for _, e := range dump.Events {
		if e.Kind == "checkpoint" && e.Verdict == "saved" && e.Name == ckpt {
			sawSave = true
		}
	}
	if last := dump.Events[len(dump.Events)-1]; !sawSave || last.Kind != "server" || last.Verdict != "crash" {
		t.Errorf("flight.json: saved=%v, last event %+v; want the save and a final server/crash (%d events)",
			sawSave, last, len(dump.Events))
	}

	// The interrupted checkpoint must still recover the acknowledged
	// generation — a crashed daemon restarts from coherent state.
	rec2, err := tracker.LoadFile(ckpt)
	if err != nil {
		t.Fatalf("post-crash checkpoint recovery: %v", err)
	}
	if rec2.BlockCount() != 2 {
		t.Errorf("recovered %d blocks, want 2", rec2.BlockCount())
	}
}
