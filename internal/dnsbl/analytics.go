package dnsbl

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
	"unclean/internal/obs/sketch"
)

// The analytics tap and the prediction scoreboard.
//
// The paper's claim is predictive — unclean blocks today contain
// tomorrow's botnet addresses — and the serving path is where that
// claim meets reality: clients query addresses they are about to
// accept mail or connections from. The tap watches that traffic at
// line rate, two ways:
//
//   - Sampled sketches (1 in sampleN fast-path packets, sharing the
//     shard's flight-event sampling counter): who queries us (top-k
//     clients + an HLL distinct-client estimate), which /24s the
//     queries ask about (top-k + count-min), and which /8, /16, /24
//     blocks the hits land in. Each shard owns its sketches — single
//     writer, atomic cells — and /debug/topk merges them at scrape
//     time.
//
//   - The prediction scoreboard: every "not listed" answer drops the
//     queried address into a per-shard ring of packed (addr,
//     millisecond) words — unsampled, because a miss is one atomic
//     store. When SetList swaps a new generation in, the sweep diffs
//     the rings against the new matcher: an address queried *before*
//     the list contained it is a live confirmation of the paper's
//     claim, counted in unclean_analytics_predicted_total with its
//     query→listing lag histogrammed, attributed to its /24, and — in
//     mesh mode — credited to the feeds that voted the block in.
//
// Everything on the serve path stays within the shard loop's 0
// allocs/op budget (enforced by BenchmarkAnalyticsTap and the
// BenchmarkServeShardedAnalytics regression gate).

// MaxAnalyticsSample is the sparsest analytics sampling rate: the
// shard's sampling tick is a uint32, so its mask selects at most 1 in
// 2^32 packets.
const MaxAnalyticsSample = 1 << 32

// The tap's sizes. Each heavy-hitter summary keeps analyticsTopK
// entries and each shard's recent-miss ring (a power of two) the last
// missRingSize not-listed answers; the count-min grid and the HLL take
// the sketch package's defaults.
const (
	analyticsTopK = 32
	missRingSize  = 4096
)

// sampleRate rounds a requested 1-in-n sampling rate up to a power of
// two in [1, MaxAnalyticsSample]; n <= 0 means shardEventSample.
func sampleRate(n int) uint64 {
	if n <= 0 {
		return shardEventSample
	}
	return min(uint64(1)<<bits.Len64(uint64(n-1)), MaxAnalyticsSample)
}

// Attributor maps a listed address to the names of the feeds that
// voted its block into the served list (feedmesh.Mesh.Contributors in
// mesh mode). Called only on cold paths: scoreboard sweeps and
// /debug/topk rendering.
type Attributor func(netaddr.Addr) []string

// Analytics is a server's query-analytics state: one tap per shard and
// the prediction scoreboard fed by SetList sweeps. Obtain one with
// Server.EnableAnalytics before serving.
type Analytics struct {
	zone       string
	sampleN    uint64 // 1-in-sampleN sketch sampling, a power of two
	sampleMask uint32

	// mu guards tap registration and the predicted-block summary, and
	// serializes sweeps.
	mu   sync.Mutex
	taps []*tap

	// pred24 summarizes the /24s of confirmed predictions (exact
	// counts — sweeps see every ring entry, no sampling).
	pred24 *sketch.TopK

	attributor atomic.Pointer[Attributor]

	reg        *obs.Registry
	zl         []string
	cSampled   *obs.Counter   // sampled sketch observations
	cSweeps    *obs.Counter   // scoreboard sweeps run
	cPredicted *obs.Counter   // addresses queried before they were listed
	hLag       *obs.Histogram // query→listing lag of confirmed predictions
	gUnique    *obs.Gauge     // merged HLL distinct-client estimate
	gPending   *obs.Gauge     // unswept miss-ring entries at last sweep
}

// EnableAnalytics switches on the query-analytics tap and prediction
// scoreboard, registering the unclean_analytics_* series on the
// server's metrics registry. The tap samples 1 in sampleN fast-path
// packets into its sketches, rounded up to a power of two and capped at
// MaxAnalyticsSample; 0 means 64, matching the flight recorder's event
// sampling, and 1 samples everything. Call before ServeConns (the shard
// loops capture the tap at startup); calling again returns the
// existing instance. Mount Analytics.Handler at /debug/topk to read
// the merged view.
func (s *Server) EnableAnalytics(sampleN int) *Analytics {
	if s.analytics != nil {
		return s.analytics
	}
	rate := sampleRate(sampleN)
	a := &Analytics{
		zone:       s.zone,
		sampleN:    rate,
		sampleMask: uint32(rate - 1),
		pred24:     sketch.NewTopK(analyticsTopK),
		reg:        s.metrics,
		zl:         []string{"zone", s.zone},
	}
	a.cSampled = s.metrics.Counter("unclean_analytics_sampled_total",
		"Packets sampled into the analytics sketches.", a.zl...)
	a.cSweeps = s.metrics.Counter("unclean_analytics_sweeps_total",
		"Prediction-scoreboard sweeps run against list swaps.", a.zl...)
	a.cPredicted = s.metrics.Counter("unclean_analytics_predicted_total",
		"Addresses queried before the list contained them (live confirmations of the prediction claim).", a.zl...)
	a.hLag = s.metrics.Histogram("unclean_analytics_prediction_lag_seconds",
		"Lag between a not-listed answer and the swap that listed the address.", a.zl...)
	a.gUnique = s.metrics.Gauge("unclean_analytics_unique_clients",
		"Distinct querying clients among sampled packets (HLL estimate).", a.zl...)
	a.gPending = s.metrics.Gauge("unclean_analytics_pending_misses",
		"Recent not-listed answers awaiting the next scoreboard sweep.", a.zl...)
	s.analytics = a
	return a
}

// SetAttributor installs the listed-address → feed-names resolver
// (mesh mode). Safe to call while serving.
func (a *Analytics) SetAttributor(fn Attributor) {
	if fn != nil {
		a.attributor.Store(&fn)
	}
}

// tap is one shard's analytics state, written only by the shard
// goroutine. Sweeps read and consume the miss ring concurrently, so
// its cells are atomic; the write position is the shard's alone.
type tap struct {
	clients *sketch.TopK // querying clients
	hot24   *sketch.TopK // queried /24s
	hit8    *sketch.TopK // listed answers by /8
	hit16   *sketch.TopK // listed answers by /16
	hit24   *sketch.TopK // listed answers by /24
	cms     *sketch.CMS  // per-/24 query frequency (upper bounds)
	hll     *sketch.HLL  // distinct clients

	// ring holds recent not-listed answers as addr<<32 | unix-millis
	// (truncated to 32 bits; lags are wraparound-safe for ~49 days).
	// 0 is the empty/consumed sentinel.
	ring     []atomic.Uint64
	ringMask uint32
	pos      uint32
}

// newTap builds a tap and registers it for sweeps and scrapes.
func (a *Analytics) newTap() *tap {
	t := &tap{
		clients:  sketch.NewTopK(analyticsTopK),
		hot24:    sketch.NewTopK(analyticsTopK),
		hit8:     sketch.NewTopK(analyticsTopK),
		hit16:    sketch.NewTopK(analyticsTopK),
		hit24:    sketch.NewTopK(analyticsTopK),
		cms:      sketch.NewCMS(0, 0),
		hll:      sketch.NewHLL(0),
		ring:     make([]atomic.Uint64, missRingSize),
		ringMask: missRingSize - 1,
	}
	a.mu.Lock()
	a.taps = append(a.taps, t)
	a.mu.Unlock()
	return t
}

// recordMiss drops a not-listed answer into the prediction ring: one
// atomic store, no branches worth counting. Every miss is recorded
// (not sampled) — the scoreboard's evidence should not depend on the
// sampling rate.
func (t *tap) recordMiss(addr netaddr.Addr, nowMS uint32) {
	t.ring[t.pos&t.ringMask].Store(uint64(addr)<<32 | uint64(nowMS))
	t.pos++
}

// observe feeds one sampled packet into the sketches. Only the owning
// shard goroutine calls it.
func (t *tap) observe(client, subject netaddr.Addr, listed bool) {
	if client != 0 {
		t.hll.Add(uint32(client))
		t.clients.Inc(uint32(client))
	}
	b24 := uint32(subject.Mask(24))
	t.cms.Inc(b24)
	t.hot24.Inc(b24)
	if listed {
		t.hit8.Inc(uint32(subject.Mask(8)))
		t.hit16.Inc(uint32(subject.Mask(16)))
		t.hit24.Inc(b24)
	}
}

// sweep diffs every tap's miss ring against a freshly swapped list:
// each recorded address the new matcher now lists was queried before
// it was listed — the event the paper predicts. Confirmed entries are
// consumed (CAS to zero), counted, lag-histogrammed, attributed to
// their /24 and, via the attributor, to the feeds that listed them.
// Runs synchronously inside SetList (the compile path, already off the
// serve path); sweeps are serialized by Analytics.mu.
func (a *Analytics) sweep(events *flight.Recorder, m *blocklist.Matcher) {
	start := time.Now()
	nowMS := uint32(start.UnixMilli())
	var predicted, pending int64

	a.mu.Lock()
	attr := a.attributor.Load()
	for _, t := range a.taps {
		for i := range t.ring {
			v := t.ring[i].Load()
			if v == 0 {
				continue
			}
			addr := netaddr.Addr(uint32(v >> 32))
			if _, hit := m.Lookup(addr); !hit {
				pending++
				continue
			}
			if !t.ring[i].CompareAndSwap(v, 0) {
				continue // overwritten by a fresher miss mid-sweep
			}
			predicted++
			lagMS := nowMS - uint32(v)
			a.hLag.Observe(time.Duration(lagMS) * time.Millisecond)
			a.pred24.Inc(uint32(addr.Mask(24)))
			if attr != nil {
				for _, feed := range (*attr)(addr) {
					a.feedPredicted(feed).Inc()
				}
			}
		}
	}
	a.cSweeps.Inc()
	a.cPredicted.Add(uint64(predicted))
	a.gPending.Set(pending)
	a.gUnique.Set(int64(a.uniqueClientsLocked()))
	a.mu.Unlock()

	if events != nil {
		events.Record(flight.Event{
			Kind:    flight.KindAnalytics,
			Name:    a.zone,
			Verdict: "sweep",
			Value:   predicted,
			Latency: time.Since(start),
		})
	}
}

// feedPredicted returns (registering on first use) the per-feed
// confirmed-prediction counter.
func (a *Analytics) feedPredicted(feed string) *obs.Counter {
	lbl := make([]string, 0, len(a.zl)+2)
	lbl = append(lbl, a.zl...)
	lbl = append(lbl, "feed", feed)
	return a.reg.Counter("unclean_analytics_feed_predictions_total",
		"Confirmed predictions attributed to the feed that voted the block in.", lbl...)
}

// uniqueClientsLocked merges the per-tap HLLs. Callers hold a.mu.
func (a *Analytics) uniqueClientsLocked() float64 {
	h := sketch.NewHLL(0)
	for _, t := range a.taps {
		h.Merge(t.hll) //nolint:errcheck // taps share one precision
	}
	return h.Estimate()
}
