package dnsbl

// Observability acceptance run: drives the chaos scenarios (send-fault
// shedding, a tripping feed breaker, checkpoint corruption recovery,
// real UDP query traffic) and asserts the whole story is visible
// through one /metrics scrape — shed, breaker-trip, and
// checkpoint-recovery counters nonzero, and a sane query-latency
// histogram — plus a populated stage-timing table for the pipeline.

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unclean/internal/faults"
	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/retry"
	"unclean/internal/stats"
	"unclean/internal/tracker"
)

// scrapeValues fetches /metrics from an obs handler and parses every
// plain series line into name{labels} → value.

func TestChaosPipelineObservability(t *testing.T) {
	trace := obs.NewTrace()

	// Stage 1: serve real traffic over loopback UDP so the latency
	// histogram fills with genuine round-trip handling times.
	spServe := trace.Start("chaos/serve")
	tr := chaosTracker(t)
	srv, err := NewServer("bl.obs.example", chaosList(tr), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeConns(ctx, []net.PacketConn{conn}, ShardConfig{}) }()
	for i := 0; i < 40; i++ {
		probe := netaddr.MustParseAddr("10.1.1.9") + netaddr.Addr(i%5)
		if _, _, err := Lookup(conn.LocalAddr().String(), "bl.obs.example", probe, time.Second); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	spServe.End()

	// Stage 2: overload — a socket that refuses 40% of response writes
	// with a transient error forces the shard to shed those answers
	// while it keeps serving; the client's retries get every lookup
	// through.
	spOverload := trace.Start("chaos/overload")
	over, err := NewServer("bl.overload.example", chaosList(tr), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	oconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := faults.NewFlakyConn(oconn, faults.ConnConfig{WriteErr: 0.4}, 20061014)
	octx, ocancel := context.WithCancel(context.Background())
	odone := make(chan error, 1)
	go func() { odone <- over.ServeConns(octx, []net.PacketConn{flaky}, ShardConfig{}) }()
	p := retry.Policy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond,
		MaxDelay: 40 * time.Millisecond, Jitter: 1, RNG: stats.NewRNG(7)}
	for i := 0; over.Snapshot().Shed == 0; i++ {
		if i == 50 {
			t.Fatal("no shedding under send faults")
		}
		if _, _, err := LookupCtx(context.Background(), oconn.LocalAddr().String(), "bl.overload.example",
			netaddr.MustParseAddr("10.1.1.9"), 200*time.Millisecond, p); err != nil {
			t.Fatalf("lookup under send faults: %v", err)
		}
	}
	spOverload.End()

	// Stage 3: a feed that stays broken trips the circuit breaker.
	spBreaker := trace.Start("chaos/breaker")
	br := retry.NewBreaker(2, time.Minute)
	feedErr := errors.New("feed dead")
	br.Record(feedErr)
	br.Record(feedErr)
	if !br.Open() {
		t.Fatal("breaker did not open after threshold failures")
	}
	spBreaker.End()

	// Stage 4: corrupt the primary checkpoint; recovery must fall back
	// to the .prev generation and count both the CRC failure and the
	// recovery.
	spRecover := trace.Start("chaos/recover")
	path := filepath.Join(t.TempDir(), "tracker.ckpt")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveFile(path); err != nil { // rotates gen 1 to .prev
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := tracker.LoadFile(path)
	if err != nil {
		t.Fatalf("recovery from .prev failed: %v", err)
	}
	if rec.BlockCount() != tr.BlockCount() {
		t.Fatalf("recovered %d blocks, want %d", rec.BlockCount(), tr.BlockCount())
	}
	spRecover.End()

	// Drain both servers before reading final counters.
	cancel()
	ocancel()
	if err := <-done; err != nil {
		t.Errorf("ServeConns: %v", err)
	}
	if err := <-odone; err != nil {
		t.Errorf("overload ServeConns: %v", err)
	}
	conn.Close()
	oconn.Close()

	// One scrape sees the whole story: per-server registries merged with
	// the process default registry.
	vals, err := obs.Samples(obs.Default(), srv.Metrics(), over.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`unclean_dnsbl_queries_total{zone="bl.obs.example"}`,
		`unclean_dnsbl_hits_total{zone="bl.obs.example"}`,
		`unclean_dnsbl_shed_total{zone="bl.overload.example"}`,
		"unclean_breaker_trips_total",
		"unclean_checkpoint_prev_recoveries_total",
		"unclean_checkpoint_crc_failures_total",
		"unclean_checkpoint_writes_total",
	} {
		if vals[series] <= 0 {
			t.Errorf("scrape: %s = %v, want > 0", series, vals[series])
		}
	}
	if c := vals[`unclean_dnsbl_query_seconds_count{zone="bl.obs.example"}`]; c < 40 {
		t.Errorf("latency histogram count = %v, want >= 40", c)
	}

	// The latency distribution must be sane: measurable but sub-second
	// on loopback, with ordered quantiles.
	lat := srv.Snapshot().Latency
	if lat.P50 <= 0 || lat.P99 < lat.P50 || lat.P99 >= time.Second {
		t.Errorf("latency quantiles insane: p50=%v p99=%v", lat.P50, lat.P99)
	}

	// The pipeline emitted a stage-timing table covering every stage.
	tbl := trace.Table()
	for _, stage := range []string{"chaos/serve", "chaos/overload", "chaos/breaker", "chaos/recover"} {
		if !strings.Contains(tbl, stage) {
			t.Errorf("stage table missing %s:\n%s", stage, tbl)
		}
	}
	t.Logf("chaos stage timings:\n%s", tbl)
}
