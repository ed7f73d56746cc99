package dnsbl

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
)

// Server answers DNSBL queries for one zone out of a blocklist trie. The
// rule's Reason selects the return code: reasons containing "bot",
// "scan", "spam" or "phish" map to the corresponding 127.0.0.x code,
// anything else to the generic code.
//
// UDP queries are served by ServeConns, batched shard loops over one
// or more sockets (shard.go), and TCP retries by ServeTCP. The serving
// path is built for hostile conditions: per-slot panic recovery (one
// poisoned packet cannot take the daemon down or its batch with it),
// send faults counted rather than fatal, and context-based graceful
// shutdown. The hot path is lock-free: counters are obs atomics and the
// blocklist hangs off an atomic pointer, so live reloads and metric
// scrapes never contend with queries.
//
// Each server owns a private obs.Registry (series labeled with its
// zone), so several servers in one process keep independent counters;
// mount Metrics() on an exposition handler to scrape them.
type Server struct {
	zone string
	ttl  uint32

	list atomic.Pointer[blocklist.Matcher]

	// zoneWire is the server's zone in DNS wire format (lowercased
	// labels, terminal root label), precomputed so the batched fast
	// path can match query names without allocating.
	zoneWire []byte

	metrics   *obs.Registry
	queries   *obs.Counter   // well-formed queries handled
	hits      *obs.Counter   // queries that matched a listing
	malformed *obs.Counter   // undecodable or non-query packets
	dropped   *obs.Counter   // responses lost to write errors or panics
	shed      *obs.Counter   // responses abandoned on transient send faults
	panics    *obs.Counter   // recovered per-slot panics (also dropped)
	latency   *obs.Histogram // per-query handling latency

	// Rolling-window views of the same serving signals (1m/5m/1h), plus
	// the availability SLO derived from them. wLatency doubles as the
	// per-window handled count (every handled packet observes exactly
	// one latency); wBad counts failures (panic, write drop, encode
	// error) on the rare path, so the common case pays one windowed
	// observe, not three windowed writes; wShed the send-side sheds.
	wBad     *obs.WindowedCounter
	wShed    *obs.WindowedCounter
	wLatency *obs.WindowedHistogram

	// events receives the sampled and anomalous per-packet wide events;
	// defaults to the process flight recorder.
	events *flight.Recorder

	// analytics, when non-nil (EnableAnalytics), taps the serve path
	// for sampled sketches and feeds the prediction scoreboard. Set
	// before serving, like the flight recorder.
	analytics *Analytics

	// handleHook, when set, runs once per batch slot on the shard loop,
	// inside the slot's panic isolation, just before the packet is
	// handled — the seam tests use to inject latency and panics into
	// the request path. nil in production.
	handleHook func()
}

// ServerStats is a point-in-time snapshot of the serving counters and
// the query latency distribution.
type ServerStats struct {
	// Queries counts well-formed queries handled (including NXDomain
	// answers); Hits counts those that matched a listing.
	Queries, Hits uint64
	// Malformed counts packets that did not decode to a single-question
	// query; they are dropped silently, as real servers do.
	Malformed uint64
	// Dropped counts responses lost after handling: write failures and
	// recovered per-slot panics.
	Dropped uint64
	// Shed counts answered queries whose response was abandoned on a
	// transient send fault (socket buffer pressure, injected loss).
	// Receive-side overload is not counted here: the shard loops never
	// stop reading, so excess queries drop in the kernel socket buffer.
	Shed uint64
	// Panics counts recovered per-slot panics (a subset of Dropped).
	Panics uint64
	// Latency summarizes the per-query handling latency distribution.
	Latency obs.HistSnapshot
}

// NewServer builds a server for zone backed by list; serve it with
// ServeConns (UDP) and ServeTCP.
func NewServer(zone string, list *blocklist.Trie, ttl time.Duration) (*Server, error) {
	if zone == "" {
		return nil, fmt.Errorf("dnsbl: empty zone")
	}
	if list == nil {
		return nil, fmt.Errorf("dnsbl: nil blocklist")
	}
	if ttl < time.Second {
		return nil, fmt.Errorf("dnsbl: TTL below one second")
	}
	s := &Server{
		zone: strings.TrimSuffix(zone, "."),
		ttl:  uint32(ttl / time.Second),
	}
	zw, err := encodeName(s.zone)
	if err != nil {
		return nil, fmt.Errorf("dnsbl: bad zone: %w", err)
	}
	// Every query name, up to 255.255.255.255.<zone>, must fit the DNS
	// name limit: otherwise the slow path could not echo a question the
	// fast path answers. With the name at most 254 wire bytes, the
	// largest answer either path writes is 12 + 254 + 4 + 16 = 286
	// bytes, so every answer fits the 512-byte UDP limit whole.
	if _, err := encodeName(QueryName(netaddr.Addr(^uint32(0)), s.zone)); err != nil {
		return nil, fmt.Errorf("dnsbl: zone too long for a query name: %w", err)
	}
	s.zoneWire = toLowerWire(zw)
	s.list.Store(blocklist.Compile(list))
	s.metrics = obs.NewRegistry()
	z := []string{"zone", s.zone}
	s.queries = s.metrics.Counter("unclean_dnsbl_queries_total", "Well-formed DNSBL queries handled.", z...)
	s.hits = s.metrics.Counter("unclean_dnsbl_hits_total", "Queries that matched a listing.", z...)
	s.malformed = s.metrics.Counter("unclean_dnsbl_malformed_total", "Undecodable or non-query packets dropped.", z...)
	s.dropped = s.metrics.Counter("unclean_dnsbl_dropped_total", "Responses lost to write errors or recovered panics.", z...)
	s.shed = s.metrics.Counter("unclean_dnsbl_shed_total", "Responses abandoned on transient send faults.", z...)
	s.panics = s.metrics.Counter("unclean_dnsbl_panics_total", "Per-slot panics recovered on the serving path.", z...)
	s.latency = s.metrics.Histogram("unclean_dnsbl_query_seconds", "Per-query handling latency (batch received to response sent).", z...)
	s.wBad = s.metrics.WindowedCounter("unclean_dnsbl_window_bad_total", "Packets that failed handling (panic, write drop, encode error), per rolling window.", z...)
	s.wShed = s.metrics.WindowedCounter("unclean_dnsbl_window_shed_total", "Responses abandoned on transient send faults, per rolling window.", z...)
	s.wLatency = s.metrics.WindowedHistogram("unclean_dnsbl_window_query_seconds", "Per-query handling latency, per rolling window.", z...)
	s.metrics.RegisterSLO(&obs.SLO{
		Name:   "unclean_dnsbl_availability",
		Help:   "Fraction of accepted packets handled cleanly.",
		Target: 0.999,
		Bad:    s.wBad,
		Total:  s.wLatency.AsTotal(),
	}, z...)
	// ShedRate as a series, refreshed on scrape: what /readyz judges and
	// the watchdog's shed rule reads.
	shed1m := s.metrics.Gauge("unclean_dnsbl_shed_1m_permille",
		"Answered packets shed on transient send faults over the last minute, permille.", z...)
	s.metrics.OnScrape(func() { shed1m.Set(int64(math.Round(s.ShedRate(time.Minute) * 1000))) })
	s.events = flight.Default()
	return s, nil
}

// Metrics returns the server's private metrics registry, for mounting
// on an obs exposition handler alongside the Default registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// SetList atomically replaces the served blocklist (live reload). The
// list is compiled off the serving path, then swapped in with one atomic
// store. It is safe to call while serving; each batch is answered
// against the compiled list it loaded when it started.
// After the swap, the analytics scoreboard (when enabled) sweeps its
// recent-miss rings against the new matcher: every address that was
// queried before this list contained it is counted as a confirmed
// prediction. The sweep runs here, on the reload path, never on the
// serve path.
func (s *Server) SetList(list *blocklist.Trie) {
	if list != nil {
		m := blocklist.Compile(list)
		s.list.Store(m)
		if a := s.analytics; a != nil {
			a.sweep(s.events, m)
		}
	}
}

// toLowerWire lowercases the label bytes of a wire-format name in place
// and returns it (label lengths are < 'A', so a blanket byte lowercase
// is safe for ASCII zones).
func toLowerWire(b []byte) []byte {
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return b
}

// Snapshot returns all serving counters and the latency summary. It is
// the one stats accessor; the counters it reports are the same obs
// series the /metrics exposition serves, so the two cannot drift.
func (s *Server) Snapshot() ServerStats {
	return ServerStats{
		Queries:   s.queries.Value(),
		Hits:      s.hits.Value(),
		Malformed: s.malformed.Value(),
		Dropped:   s.dropped.Value(),
		Shed:      s.shed.Value(),
		Panics:    s.panics.Value(),
		Latency:   s.latency.Snapshot(),
	}
}

// ShedRate reports the fraction of answered packets shed on transient
// send faults over the trailing window (0 when the server saw no
// traffic). It is the signal /readyz uses: a server that cannot get
// its answers out is up but not ready for more load.
func (s *Server) ShedRate(window time.Duration) float64 {
	shed := s.wShed.Total(window)
	total := shed + s.wLatency.Count(window)
	if total == 0 {
		return 0
	}
	return float64(shed) / float64(total)
}

// SetFlightRecorder redirects the server's wide events to r (tests and
// multi-server processes that keep separate rings). Call before serving.
func (s *Server) SetFlightRecorder(r *flight.Recorder) {
	if r != nil {
		s.events = r
	}
}

// peerAddr extracts the peer's IPv4 address for the wide event (0 when
// the peer is not UDP/IPv4).
func peerAddr(a net.Addr) netaddr.Addr {
	u, ok := a.(*net.UDPAddr)
	if !ok {
		return 0
	}
	ip := u.IP.To4()
	if ip == nil {
		return 0
	}
	return netaddr.MakeAddr(ip[0], ip[1], ip[2], ip[3])
}

// handle builds the response bytes for one query packet, or nil to
// drop, annotating the packet's wide event with the subject address and
// the one-word verdict. UDP and TCP share it: no answer exceeds the
// 512-byte UDP limit (see NewServer).
func (s *Server) handle(pkt []byte, ev *flight.Event) []byte {
	q, err := Decode(pkt)
	if err != nil || q.Response || len(q.Questions) != 1 {
		s.malformed.Inc()
		ev.Verdict = "malformed"
		return nil
	}
	s.queries.Inc()
	list := s.list.Load()

	question := q.Questions[0]
	resp := &Message{
		ID:                 q.ID,
		Response:           true,
		Authoritative:      true,
		RecursionDesired:   q.RecursionDesired,
		RecursionAvailable: false,
		Questions:          []Question{question},
	}
	addr, ok := ParseQueryName(question.Name, s.zone)
	switch {
	case !ok:
		resp.RCode = RCodeNXDomain
		ev.Verdict = "badname"
	case question.Type != TypeA || question.Class != ClassIN:
		resp.RCode = RCodeOK // name exists; no data of that type
		ev.Verdict = "nodata"
	default:
		ev.Addr = addr
		entry, listed := list.Lookup(addr)
		if !listed {
			resp.RCode = RCodeNXDomain
			ev.Verdict = "miss"
		} else {
			s.hits.Inc()
			ev.Verdict = "hit"
			ev.Flags |= flight.FlagHit
			code := codeFor(entry.Reason)
			o0, o1, o2, o3 := code.Octets()
			resp.Answers = append(resp.Answers, Answer{
				Name:  question.Name,
				Type:  TypeA,
				Class: ClassIN,
				TTL:   s.ttl,
				Data:  []byte{o0, o1, o2, o3},
			})
		}
	}
	out, err := resp.Encode()
	if err != nil {
		ev.Verdict = "encode_error"
		ev.Flags |= flight.FlagErr
		return nil
	}
	return out
}

func codeFor(reason string) netaddr.Addr {
	r := strings.ToLower(reason)
	switch {
	case strings.Contains(r, "bot"):
		return CodeBot
	case strings.Contains(r, "scan"):
		return CodeScan
	case strings.Contains(r, "spam"):
		return CodeSpam
	case strings.Contains(r, "phish"):
		return CodePhish
	}
	return CodeGeneric
}
