package dnsbl

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/obs/flight"
)

// testQuery builds one wire-format query for addr against zone.
func testQuery(t *testing.T, zone, addr string) []byte {
	t.Helper()
	m := &Message{
		ID: 99,
		Questions: []Question{{
			Name: QueryName(netaddr.MustParseAddr(addr), zone),
			Type: TypeA, Class: ClassIN,
		}},
	}
	pkt, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// analyticsShard builds a server with analytics on and one hand-driven
// shard (no sockets): tests feed packets straight through serveMsg.
func analyticsShard(t *testing.T, sampleN int) (*Server, *Analytics, *shard) {
	t.Helper()
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	a := srv.EnableAnalytics(sampleN)
	sh := srv.newShard(0, nil, ShardConfig{}.withDefaults(1))
	sh.nowMS = uint32(time.Now().UnixMilli()) // runShard sets this per batch
	return srv, a, sh
}

// serveAddr pushes one query through the shard loop's serve path.
func serveAddr(t *testing.T, srv *Server, sh *shard, addr string) *batchMsg {
	t.Helper()
	m := &sh.msgs[0]
	m.inN = copy(m.in, testQuery(t, "bl.shard.example", addr))
	m.client = netaddr.MakeAddr(198, 51, 100, 7)
	srv.serveMsg(sh, m, srv.list.Load())
	return m
}

func TestAnalyticsScoreboardConfirmsPredictions(t *testing.T) {
	srv, a, sh := analyticsShard(t, 1)
	rec := flight.New(256)
	srv.SetFlightRecorder(rec)

	// Backdate the shard's batch clock so confirmed predictions show a
	// measurable query→listing lag.
	sh.nowMS = uint32(time.Now().Add(-2 * time.Second).UnixMilli())

	// Three misses in a then-unlisted /24, one in another, one hit.
	for _, addr := range []string{"10.9.9.1", "10.9.9.2", "10.9.9.3", "172.16.0.1"} {
		if m := serveAddr(t, srv, sh, addr); m.outN == 0 {
			t.Fatalf("no answer for %s", addr)
		}
	}
	serveAddr(t, srv, sh, "10.1.1.5") // listed: must NOT enter the ring

	// Swap in a list that now contains the first /24 — the paper's
	// prediction coming true for three recorded addresses.
	nl := shardTestList()
	nl.Insert(netaddr.MustParseBlock("10.9.9.0/24"), "bot")
	srv.SetList(nl)

	if got := a.cPredicted.Value(); got != 3 {
		t.Fatalf("Predicted = %d, want 3", got)
	}
	doc := a.Snapshot(10)
	if doc.Prediction.Sweeps != 1 || doc.Prediction.Predicted != 3 {
		t.Fatalf("prediction doc = %+v, want 1 sweep, 3 predicted", doc.Prediction)
	}
	if doc.Prediction.PendingMisses != 1 {
		t.Fatalf("PendingMisses = %d, want 1 (172.16.0.1 still unlisted)", doc.Prediction.PendingMisses)
	}
	if len(doc.Prediction.TopBlocks) == 0 ||
		doc.Prediction.TopBlocks[0].Key != "10.9.9.0/24" ||
		doc.Prediction.TopBlocks[0].Count != 3 {
		t.Fatalf("TopBlocks = %+v, want 10.9.9.0/24 count 3", doc.Prediction.TopBlocks)
	}
	if doc.Prediction.LagP50 == "" {
		t.Fatal("no lag quantiles after confirmed predictions")
	}
	if p50, err := time.ParseDuration(doc.Prediction.LagP50); err != nil || p50 < time.Second || p50 > time.Minute {
		t.Fatalf("LagP50 = %q, want ≈2s", doc.Prediction.LagP50)
	}

	// The sweep left a flight event behind.
	evs := rec.Snapshot(flight.Filter{Kinds: []flight.Kind{flight.KindAnalytics}})
	if len(evs) != 1 || evs[0].Verdict != "sweep" || evs[0].Value != 3 {
		t.Fatalf("analytics events = %+v, want one sweep with value 3", evs)
	}

	// Consumed entries must not double-count on the next swap.
	nl2 := shardTestList()
	nl2.Insert(netaddr.MustParseBlock("10.9.9.0/24"), "bot")
	nl2.Insert(netaddr.MustParseBlock("192.0.2.0/24"), "bot")
	srv.SetList(nl2)
	if got := a.cPredicted.Value(); got != 3 {
		t.Fatalf("Predicted after second sweep = %d, want 3 (no double count)", got)
	}
}

func TestAnalyticsSketchesSeeSampledTraffic(t *testing.T) {
	srv, a, sh := analyticsShard(t, 1)
	for i := 0; i < 8; i++ {
		serveAddr(t, srv, sh, "10.1.1.9") // hits in 10.1.1.0/24
	}
	for i := 0; i < 4; i++ {
		serveAddr(t, srv, sh, "172.16.5.1") // misses in 172.16.5.0/24
	}
	doc := a.Snapshot(10)
	if doc.Sampled != 12 {
		t.Fatalf("Sampled = %d, want 12", doc.Sampled)
	}
	if len(doc.TopClients) != 1 || doc.TopClients[0].Key != "198.51.100.7" || doc.TopClients[0].Count != 12 {
		t.Fatalf("TopClients = %+v, want 198.51.100.7 ×12", doc.TopClients)
	}
	if doc.UniqueClients != 1 {
		t.Fatalf("UniqueClients = %d, want 1", doc.UniqueClients)
	}
	if len(doc.HotSubnets) != 2 || doc.HotSubnets[0].Key != "10.1.1.0/24" || doc.HotSubnets[0].Count != 8 {
		t.Fatalf("HotSubnets = %+v, want 10.1.1.0/24 ×8 first", doc.HotSubnets)
	}
	if doc.HotSubnets[0].CMSEstimate < 8 {
		t.Fatalf("CMSEstimate = %d, want ≥ 8", doc.HotSubnets[0].CMSEstimate)
	}
	hits := doc.HitBlocks["/24"]
	if len(hits) != 1 || hits[0].Key != "10.1.1.0/24" || hits[0].Count != 8 {
		t.Fatalf("HitBlocks[/24] = %+v, want 10.1.1.0/24 ×8", hits)
	}
	if h8 := doc.HitBlocks["/8"]; len(h8) != 1 || h8[0].Key != "10.0.0.0/8" {
		t.Fatalf("HitBlocks[/8] = %+v, want 10.0.0.0/8", h8)
	}
}

// TestAnalyticsSharesShardSamplingCounter pins the satellite fix: the
// flight-event sample and the sketch sample ride one per-shard tick, so
// with both at the default 1-in-64 they fire on exactly the same
// packets — no second counter, no drift.
func TestAnalyticsSharesShardSamplingCounter(t *testing.T) {
	srv, a, sh := analyticsShard(t, 0) // default sampleN = 64
	if a.sampleN != shardEventSample {
		t.Fatalf("default sampleN = %d, want %d", a.sampleN, shardEventSample)
	}
	events := 0
	for i := 0; i < 4*shardEventSample; i++ {
		m := serveAddr(t, srv, sh, "10.1.1.9")
		sampledNow := sh.tick&sh.tapMask == 0
		if m.ev != nil {
			events++
			if !sampledNow {
				t.Fatalf("packet %d: flight event without sketch sample — counters drifted", i)
			}
		} else if sampledNow {
			t.Fatalf("packet %d: sketch sample without flight event — counters drifted", i)
		}
	}
	if events != 4 {
		t.Fatalf("flight events = %d, want 4 over %d packets", events, 4*shardEventSample)
	}
	if got := a.cSampled.Value(); got != 4 {
		t.Fatalf("sampled observations = %d, want 4", got)
	}
}

// The shard's sampling tick is a uint32, so the sparsest rate the tap
// can honour is 1 in 2^32: the largest accepted rate and every larger
// request sample exactly that, and /debug/topk reports and scales by
// it. Ordinary rates round up to a power of two.
func TestAnalyticsSampleRateCapped(t *testing.T) {
	for _, n := range []uint64{MaxAnalyticsSample, MaxAnalyticsSample - 1, 1 << 40, 1<<62 + 1, math.MaxInt64} {
		if n > math.MaxInt {
			continue // not an int on this platform
		}
		_, a, _ := analyticsShard(t, int(n))
		if a.sampleMask != 0xffffffff {
			t.Errorf("EnableAnalytics(%d): mask %#x, want 0xffffffff", n, a.sampleMask)
		}
		if got := a.Snapshot(0).SampleN; got != MaxAnalyticsSample {
			t.Errorf("EnableAnalytics(%d): sample_n %d, want %d", n, got, uint64(MaxAnalyticsSample))
		}
	}
	for n, want := range map[int]uint64{-1: 64, 0: 64, 1: 1, 3: 4, 64: 64, 65: 128} {
		if got := sampleRate(n); got != want {
			t.Errorf("sampleRate(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAnalyticsFeedAttribution(t *testing.T) {
	srv, a, sh := analyticsShard(t, 1)
	a.SetAttributor(func(addr netaddr.Addr) []string {
		if addr.Mask(24) == netaddr.MustParseAddr("10.9.9.0") {
			return []string{"honeypot", "spamtrap"}
		}
		return nil
	})
	serveAddr(t, srv, sh, "10.9.9.7")
	nl := shardTestList()
	nl.Insert(netaddr.MustParseBlock("10.9.9.0/24"), "bot")
	srv.SetList(nl)

	if got := a.feedPredicted("honeypot").Value(); got != 1 {
		t.Fatalf("honeypot predictions = %d, want 1", got)
	}
	if got := a.feedPredicted("spamtrap").Value(); got != 1 {
		t.Fatalf("spamtrap predictions = %d, want 1", got)
	}
	doc := a.Snapshot(10)
	tb := doc.Prediction.TopBlocks
	if len(tb) != 1 || len(tb[0].Feeds) != 2 || tb[0].Feeds[0] != "honeypot" {
		t.Fatalf("TopBlocks attribution = %+v, want feeds [honeypot spamtrap]", tb)
	}
}

func TestAnalyticsHandlerJSON(t *testing.T) {
	srv, a, sh := analyticsShard(t, 1)
	serveAddr(t, srv, sh, "10.1.1.9")
	serveAddr(t, srv, sh, "172.16.0.5")

	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/topk?n=5", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/topk: %d\n%s", rec.Code, rec.Body.String())
	}
	var doc TopKDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Zone != "bl.shard.example" || doc.SampleN != 1 || doc.Sampled != 2 {
		t.Fatalf("doc header = %+v", doc)
	}
	if len(doc.TopClients) == 0 || len(doc.HotSubnets) != 2 {
		t.Fatalf("doc lists: clients=%+v subnets=%+v", doc.TopClients, doc.HotSubnets)
	}

	rec = httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/topk?n=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad n accepted: %d", rec.Code)
	}
}

// TestAnalyticsShardedEndToEnd drives the real sharded serve path over
// sockets: query unlisted addresses, swap in a list containing them,
// and read a nonzero confirmed-prediction count back.
func TestAnalyticsShardedEndToEnd(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	a := srv.EnableAnalytics(1)
	conns, err := ListenShards("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	addr := conns[0].LocalAddr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeConns(ctx, conns, ShardConfig{}) }()

	for _, probe := range []string{"10.50.1.1", "10.50.1.2", "10.50.2.1"} {
		listed, _, err := Lookup(addr, "bl.shard.example", netaddr.MustParseAddr(probe), 2*time.Second)
		if err != nil {
			t.Fatalf("lookup %s: %v", probe, err)
		}
		if listed {
			t.Fatalf("%s listed before the swap", probe)
		}
	}

	nl := shardTestList()
	nl.Insert(netaddr.MustParseBlock("10.50.0.0/16"), "bot")
	srv.SetList(nl)

	if got := a.cPredicted.Value(); got < 3 {
		t.Fatalf("Predicted = %d, want ≥ 3", got)
	}
	doc := a.Snapshot(10)
	if doc.Prediction.LagP50 == "" {
		t.Fatal("no lag quantiles from the sharded end-to-end path")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeConns: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConns did not exit")
	}
}
