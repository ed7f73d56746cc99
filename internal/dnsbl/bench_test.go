package dnsbl

import (
	"context"
	"net"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
	"unclean/internal/obs/flight"
)

// The serve-path benchmarks pin the cost of the instrumented hot paths:
// handle (decode → trie lookup → encode, the slow-shape and TCP path)
// and runShard (the UDP serve loop: per-slot panic isolation, fast
// parse → matcher lookup → zero-copy encode over an in-memory batcher,
// so the numbers measure the serve path, not the kernel). CI's bench
// job archives these and gates BenchmarkServeSharded against the
// baseline, so a slowdown shows up as a regression in the trajectory,
// not a guess. ServeSharded also reports its p50/p99 handling latency.

func benchServer(b *testing.B) *Server {
	b.Helper()
	list := &blocklist.Trie{}
	for i := 0; i < 256; i++ {
		base := netaddr.Addr(uint32(10)<<24 | uint32(i)<<16 | 1<<8)
		list.Insert(base.Block(24), "bot")
	}
	srv, err := NewServer("bl.bench.example", list, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

func benchQuery(b *testing.B, addr string) []byte {
	b.Helper()
	m := &Message{
		ID: 7,
		Questions: []Question{{
			Name: QueryName(netaddr.MustParseAddr(addr), "bl.bench.example"),
			Type: TypeA, Class: ClassIN,
		}},
	}
	pkt, err := m.Encode()
	if err != nil {
		b.Fatal(err)
	}
	return pkt
}

// reportLatency surfaces the server-side handling latency quantiles as
// benchmark metrics, so benchjson trajectories track tail behavior, not
// just throughput.
func reportLatency(b *testing.B, srv *Server) {
	b.Helper()
	lat := srv.Snapshot().Latency
	b.ReportMetric(float64(lat.P50.Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lat.P99.Nanoseconds()), "p99-ns")
}

func BenchmarkHandleHit(b *testing.B) {
	srv := benchServer(b)
	q := benchQuery(b, "10.42.1.9")
	b.ReportAllocs()
	b.ResetTimer()
	var ev flight.Event
	for i := 0; i < b.N; i++ {
		if srv.handle(q, &ev) == nil {
			b.Fatal("handle dropped a valid query")
		}
	}
}

func BenchmarkHandleMiss(b *testing.B) {
	srv := benchServer(b)
	q := benchQuery(b, "192.0.2.1")
	b.ReportAllocs()
	b.ResetTimer()
	var ev flight.Event
	for i := 0; i < b.N; i++ {
		if srv.handle(q, &ev) == nil {
			b.Fatal("handle dropped a valid query")
		}
	}
}

// memBatcher is an in-memory batchIO: every ReadBatch hands back a full
// batch of copies of one prepared query until the budget runs out, then
// reports the conn closed (runShard's clean-exit signal); writes are
// free. It isolates the shard loop — parse, lookup, encode, accounting
// — from socket syscalls.
type memBatcher struct {
	q         []byte
	remaining int64
}

func (m *memBatcher) ReadBatch(ms []batchMsg) (int, error) {
	if m.remaining <= 0 {
		return 0, net.ErrClosed
	}
	n := len(ms)
	if int64(n) > m.remaining {
		n = int(m.remaining)
	}
	m.remaining -= int64(n)
	for i := 0; i < n; i++ {
		ms[i].inN = copy(ms[i].in, m.q)
		ms[i].peer = nil
		ms[i].client = netaddr.MakeAddr(127, 0, 0, 1)
	}
	return n, nil
}

func (m *memBatcher) WriteBatch(ms []batchMsg) error { return nil }
func (m *memBatcher) LocalAddr() net.Addr            { return nil }
func (m *memBatcher) Close() error                   { return nil }

// BenchmarkServeSharded runs one complete shard loop over b.N packets:
// batched reads, per-slot panic isolation, the zero-copy fast path, and
// full stats/flight accounting, at 0 allocs/op (CI gates it). The
// SO_REUSEPORT fan-out then multiplies its rate by the shard count.
func BenchmarkServeSharded(b *testing.B) {
	srv := benchServer(b)
	q := benchQuery(b, "10.42.1.9")
	cfg := ShardConfig{}.withDefaults(1)
	sh := srv.newShard(0, nil, cfg)
	mem := &memBatcher{q: q}
	sh.io = mem
	b.ReportAllocs()
	b.ResetTimer()
	mem.remaining = int64(b.N)
	if err := srv.runShard(context.Background(), sh); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st := srv.Snapshot()
	if st.Queries != uint64(b.N) || st.Latency.Count != uint64(b.N) {
		b.Fatalf("instrumentation lost queries: %+v after %d", st, b.N)
	}
	reportLatency(b, srv)
}

// BenchmarkServeShardedAnalytics is BenchmarkServeSharded with the
// analytics tap enabled at its default 1-in-64 sampling: the delta is
// the full observability cost on the hot path. The acceptance bar is
// ≤5% over the baseline with allocs/op still 0 (CI gates both).
func BenchmarkServeShardedAnalytics(b *testing.B) {
	srv := benchServer(b)
	srv.EnableAnalytics(0)
	q := benchQuery(b, "10.42.1.9")
	cfg := ShardConfig{}.withDefaults(1)
	sh := srv.newShard(0, nil, cfg)
	mem := &memBatcher{q: q}
	sh.io = mem
	b.ReportAllocs()
	b.ResetTimer()
	mem.remaining = int64(b.N)
	if err := srv.runShard(context.Background(), sh); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if st := srv.Snapshot(); st.Queries != uint64(b.N) {
		b.Fatalf("instrumentation lost queries: %+v after %d", st, b.N)
	}
	reportLatency(b, srv)
}

// BenchmarkAnalyticsTap measures the tap primitives the shard loop
// calls: one miss-ring append per not-listed answer plus one full
// sketch observation (HLL + client top-k + CMS + subnet top-k). Must
// stay 0 allocs/op — CI gates on it.
func BenchmarkAnalyticsTap(b *testing.B) {
	srv := benchServer(b)
	a := srv.EnableAnalytics(1)
	tp := a.newTap()
	now := uint32(time.Now().UnixMilli())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := netaddr.Addr(uint32(10)<<24 | uint32(i))
		tp.recordMiss(addr, now)
		tp.observe(netaddr.MakeAddr(198, 51, 100, byte(i)), addr, i&1 == 0)
	}
	if a.cPredicted.Value() != 0 {
		b.Fatal("no sweep ran, yet predictions appeared")
	}
}
