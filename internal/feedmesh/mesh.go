package feedmesh

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/obs/flight"
	"unclean/internal/retry"
)

var meshLog = obs.Logger("feedmesh")

// weightEpsilon is the merge weight below which a decayed contribution
// is dropped entirely instead of carrying infinitesimal votes forever.
const weightEpsilon = 1e-3

// feed is the mesh's per-source state: the quarantine machine, quality
// EWMA, decaying merge weight, and this feed's metric handles.
type feed struct {
	src     Source
	breaker *retry.Breaker

	state          State
	quality        float64                 // EWMA of per-round quality, starts at 1
	weight         float64                 // merge weight (quality for healthy, decaying residue after)
	contribBits    ipset.Set               // last accepted batch masked to Bits block bases
	contribReasons map[netaddr.Addr]string // that batch's reasons
	prevBatch      ipset.Set               // last loaded batch, accepted or not (duplicate ratio)

	probationOK int // consecutive clean loads while on probation

	loads, failures uint64
	lastSuccess     time.Time
	lastErr         string
	lastDup         float64
	lastFP          float64
	lastLag         time.Duration
	lastBatchLen    int

	// round-scoped scratch, valid only inside Tick
	roundLoaded bool
	roundBits   ipset.Set
	roundQ      float64

	gQuality, gWeight, gState *obs.Gauge
	gDup, gFP, gLagMS, gBatch *obs.Gauge
	gLastSuccess              *obs.Gauge
	cLoads, cFails            *obs.Counter
	wAttempts, wOK            *obs.WindowedCounter
}

// Mesh supervises a set of reputation feeds and maintains the merged,
// reputation-weighted blocklist they agree on. Construct with New; all
// exported methods are safe for concurrent use, though rounds themselves
// are serialized (Tick holds the mesh lock for scoring and merging,
// never across source loads).
type Mesh struct {
	cfg    Config
	reg    *obs.Registry
	events *flight.Recorder
	onSwap func(*blocklist.Trie)

	mu       sync.Mutex
	feeds    []*feed
	round    uint64
	lastGood *blocklist.Trie
	lastBits ipset.Set               // block bases of lastGood
	lastWhy  map[netaddr.Addr]string // reason of each block of lastGood
	built    bool                    // at least one non-degraded merge happened
	degraded bool
	// contrib maps each merged block base to the sorted names of the
	// feeds whose votes put it over the threshold — the attribution
	// the analytics scoreboard renders next to hit and predicted
	// blocks. Rebuilt by merge(); frozen (like lastGood) while
	// degraded.
	contrib map[netaddr.Addr][]string

	mRounds, mSwaps         *obs.Counter
	mQuarantines, mReadmits *obs.Counter
	gMerged, gDegraded      *obs.Gauge
	gHealthy                *obs.Gauge
}

// New builds a mesh over the given sources. Source names must be
// non-empty and unique — they label every metric, log line, and flight
// event the mesh emits.
func New(cfg Config, sources ...Source) (*Mesh, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("feedmesh: at least one source required")
	}
	m := &Mesh{
		cfg:    cfg,
		reg:    obs.NewRegistry(),
		events: flight.Default(),
	}
	m.mRounds = m.reg.Counter("unclean_feedmesh_rounds_total", "Merge rounds executed.")
	m.mSwaps = m.reg.Counter("unclean_feedmesh_swaps_total", "Merged-list changes handed to the server.")
	m.mQuarantines = m.reg.Counter("unclean_feedmesh_quarantines_total", "Feed quarantine transitions.")
	m.mReadmits = m.reg.Counter("unclean_feedmesh_readmissions_total", "Feeds re-admitted after probation.")
	m.gMerged = m.reg.Gauge("unclean_feedmesh_merged_blocks", "Blocks in the current merged list.")
	m.gDegraded = m.reg.Gauge("unclean_feedmesh_degraded", "1 while serving the last-good list because too few feeds are healthy.")
	m.gHealthy = m.reg.Gauge("unclean_feedmesh_healthy_feeds", "Feeds in the healthy state that have loaded at least once.")

	seen := map[string]bool{}
	for _, src := range sources {
		name := src.Name()
		if name == "" {
			return nil, fmt.Errorf("feedmesh: source with empty name")
		}
		if seen[name] {
			return nil, fmt.Errorf("feedmesh: duplicate source name %q", name)
		}
		seen[name] = true
		f := &feed{
			src:     src,
			breaker: retry.NewBreaker(breakerThreshold, breakerCooldownIntervals*cfg.Interval),
			state:   StateHealthy,
			quality: 1,
		}
		f.breaker.SetClock(cfg.Now)
		lbl := []string{"feed", name}
		f.gQuality = m.reg.Gauge("unclean_feedmesh_quality_permille", "Feed quality EWMA, permille.", lbl...)
		f.gWeight = m.reg.Gauge("unclean_feedmesh_weight_permille", "Feed merge weight, permille.", lbl...)
		f.gState = m.reg.Gauge("unclean_feedmesh_state", "Feed state: 0 healthy, 1 probation, 2 quarantined.", lbl...)
		f.gDup = m.reg.Gauge("unclean_feedmesh_dup_permille", "Overlap of the last batch with the previous one, permille.", lbl...)
		f.gFP = m.reg.Gauge("unclean_feedmesh_fp_permille", "False-positive (uncorroborated) share of the last batch, permille.", lbl...)
		f.gLagMS = m.reg.Gauge("unclean_feedmesh_lag_ms", "Age of the feed's data at last load, milliseconds.", lbl...)
		f.gBatch = m.reg.Gauge("unclean_feedmesh_batch_addrs", "Addresses in the last loaded batch.", lbl...)
		f.gLastSuccess = m.reg.Gauge("unclean_feedmesh_last_success_unix", "Unix time of the last successful load (0 = never).", lbl...)
		f.cLoads = m.reg.Counter("unclean_feedmesh_loads_total", "Successful feed loads.", lbl...)
		f.cFails = m.reg.Counter("unclean_feedmesh_load_failures_total", "Failed or skipped feed loads.", lbl...)
		f.wAttempts = m.reg.WindowedCounter("unclean_feedmesh_load_attempts", "Load attempts over trailing windows.", lbl...)
		f.wOK = m.reg.WindowedCounter("unclean_feedmesh_load_ok", "Successful loads over trailing windows.", lbl...)
		f.wAttempts.Clock(cfg.Now)
		f.wOK.Clock(cfg.Now)
		m.reg.RegisterSLO(&obs.SLO{
			Name:   "unclean_feedmesh_load_success",
			Help:   "Per-feed load success objective.",
			Target: 0.9,
			Good:   f.wOK,
			Total:  f.wAttempts,
		}, lbl...)
		f.gQuality.Set(1000)
		m.feeds = append(m.feeds, f)
	}
	return m, nil
}

// Metrics returns the mesh's private metric registry for mounting on a
// daemon's exposition endpoint.
func (m *Mesh) Metrics() *obs.Registry { return m.reg }

// OnSwap registers the callback invoked (outside the mesh lock) each
// time the merged list changes — dnsbld points this at Server.SetList.
func (m *Mesh) OnSwap(fn func(*blocklist.Trie)) { m.onSwap = fn }

// List returns the current merged list (nil before the first merge).
func (m *Mesh) List() *blocklist.Trie {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastGood
}

// loadResult is one feed's load outcome in a round.
type loadResult struct {
	batch   Batch
	err     error
	latency time.Duration
	skipped bool
}

// Tick executes one merge round: load every admissible feed
// concurrently, score quality, advance the quarantine machine, rebuild
// the weighted merge, and hand a changed list to the OnSwap callback.
// It is synchronous — when it returns, metrics, Status, and the served
// list all reflect the round — and reports whether the list changed.
func (m *Mesh) Tick(ctx context.Context) (swapped bool) {
	now := m.cfg.Now()

	results := make([]loadResult, len(m.feeds))
	var wg sync.WaitGroup
	for i, f := range m.feeds {
		if !f.breaker.Allow() {
			results[i].skipped = true
			continue
		}
		wg.Add(1)
		go func(i int, f *feed) {
			defer wg.Done()
			start := time.Now()
			b, err := f.src.Load(ctx)
			results[i] = loadResult{batch: b, err: err, latency: time.Since(start)}
		}(i, f)
	}
	wg.Wait()

	newList, cb := m.settle(now, results)
	if newList != nil && cb != nil {
		cb(newList)
	}
	return newList != nil
}

// settle is the locked part of a round: it scores the loads, advances
// the quarantine machine and rebuilds the merge. newList is the merged
// list when it changed, nil otherwise; cb is the OnSwap callback the
// caller runs with it outside the lock. The unlock is deferred, so a
// panic here cannot leave Status, List and the readiness check blocked.
func (m *Mesh) settle(now time.Time, results []loadResult) (newList *blocklist.Trie, cb func(*blocklist.Trie)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.round++
	m.mRounds.Inc()

	// Pass 1: bookkeeping per feed — breaker, counters, flight events —
	// and collect this round's block sets for corroboration scoring.
	for i, f := range m.feeds {
		r := &results[i]
		f.roundLoaded, f.roundBits = false, ipset.Set{}
		f.wAttempts.IncAt(now)
		switch {
		case r.skipped:
			f.failures++
			f.cFails.Inc()
			f.lastErr = retry.ErrOpen.Error()
			m.events.Record(flight.Event{
				Kind: flight.KindFeedLoad, Flags: flight.FlagErr,
				Name: f.src.Name(), Verdict: "skipped", Detail: "breaker open",
			})
		case r.err != nil:
			f.breaker.Record(r.err)
			f.failures++
			f.cFails.Inc()
			f.lastErr = r.err.Error()
			m.events.Record(flight.Event{
				Kind: flight.KindFeedLoad, Flags: flight.FlagErr,
				Name: f.src.Name(), Verdict: "failed",
				Latency: r.latency, Detail: f.lastErr,
			})
		default:
			f.breaker.Record(nil)
			f.loads++
			f.cLoads.Inc()
			f.wOK.IncAt(now)
			f.lastErr = ""
			f.lastSuccess = now
			f.lastBatchLen = r.batch.Addrs.Len()
			f.gLastSuccess.Set(now.Unix())
			f.gBatch.Set(int64(f.lastBatchLen))
			f.roundLoaded = true
			f.roundBits = r.batch.Addrs.MaskedSet(Bits)
			m.events.Record(flight.Event{
				Kind: flight.KindFeedLoad, Name: f.src.Name(), Verdict: "loaded",
				Latency: r.latency, Value: int64(f.lastBatchLen),
			})
		}
	}

	// Corroboration map: how many loaded, non-quarantined feeds
	// reported each block this round.
	votesThisRound := map[netaddr.Addr]int{}
	loadedPeers := 0
	for _, f := range m.feeds {
		if !f.roundLoaded || f.state == StateQuarantined {
			continue
		}
		loadedPeers++
		f.roundBits.Each(func(a netaddr.Addr) bool {
			votesThisRound[a]++
			return true
		})
	}

	// Pass 2: per-round quality and the EWMA.
	alpha := 2.0 / float64(QualityWindow+1)
	for i, f := range m.feeds {
		r := &results[i]
		f.roundQ = 0
		if f.roundLoaded {
			f.roundQ = m.scoreBatch(f, r.batch, now, votesThisRound, loadedPeers)
		}
		f.quality = (1-alpha)*f.quality + alpha*f.roundQ
		f.gQuality.Set(permille(f.quality))
	}

	// Pass 3: the quarantine state machine and merge weights.
	for i, f := range m.feeds {
		cleanLoad := f.roundLoaded && f.roundQ >= minQuality && !f.breaker.Open()
		switch f.state {
		case StateHealthy:
			if f.breaker.Open() || f.quality < minQuality {
				m.transition(f, StateQuarantined, now)
			} else if f.roundLoaded {
				f.contribBits = f.roundBits
				f.contribReasons = results[i].batch.Reasons
				f.weight = f.quality
			} else {
				// transient miss: keep serving the last accepted batch at
				// the (EWMA-reduced) quality weight
				f.weight = f.quality
			}
		case StateQuarantined:
			f.weight *= decay
			if cleanLoad {
				f.probationOK = 1
				m.transition(f, StateProbation, now)
			}
		case StateProbation:
			f.weight *= decay
			if cleanLoad {
				f.probationOK++
				if f.probationOK >= ProbationLoads && f.quality >= minQuality {
					f.contribBits = f.roundBits
					f.contribReasons = results[i].batch.Reasons
					f.weight = f.quality
					m.transition(f, StateHealthy, now)
				}
			} else {
				f.probationOK = 0
				m.transition(f, StateQuarantined, now)
			}
		}
		f.gWeight.Set(permille(f.weight))
		f.gState.Set(int64(f.state))
	}

	healthy := 0
	for _, f := range m.feeds {
		if countsHealthy(f.state, f.loads) {
			healthy++
		}
	}
	m.gHealthy.Set(int64(healthy))

	// Degradation gate: with too few healthy feeds, freeze the last-good
	// list rather than rebuild from a minority.
	wasDegraded := m.degraded
	m.degraded = float64(healthy)/float64(len(m.feeds)) < minHealthyFrac && m.built
	if m.degraded {
		m.gDegraded.Set(1)
	} else {
		m.gDegraded.Set(0)
	}
	if m.degraded != wasDegraded {
		verdict := "degraded"
		var fl flight.Flags
		if !m.degraded {
			verdict, fl = "restored", flight.FlagRecovered
		}
		m.events.Record(flight.Event{
			Kind: flight.KindMesh, Flags: fl, Verdict: verdict,
			Value: int64(healthy),
		})
		meshLog.Warn("mesh capacity change", "state", verdict,
			"healthy", healthy, "total", len(m.feeds))
	}

	if !m.degraded {
		// A block whose reason changed changes its answer, so it swaps
		// the list like an added or dropped block.
		merged, why := m.merge()
		if !maps.Equal(why, m.lastWhy) {
			newList = &blocklist.Trie{}
			for _, b := range merged.Blocks(Bits) {
				newList.Insert(b, why[b.Base()])
			}
			m.lastGood, m.lastBits, m.lastWhy = newList, merged, why
			m.mSwaps.Inc()
		}
		m.built = true
	}
	m.gMerged.Set(int64(m.lastBits.Len()))

	m.events.Record(flight.Event{
		Kind: flight.KindMesh, Verdict: "round",
		Value: int64(m.lastBits.Len()),
		Name:  fmt.Sprintf("healthy=%d/%d", healthy, len(m.feeds)),
	})
	return newList, m.onSwap
}

// countsHealthy is the mesh's one health rule: a feed counts toward the
// mesh's capacity only in the healthy state and after at least one load,
// since a feed that has never delivered a batch has nothing to vote
// with. The round's healthy count and degradation test, Status and
// FeedStatus.Health all go through it.
func countsHealthy(s State, loads uint64) bool { return s == StateHealthy && loads > 0 }

// scoreBatch computes the per-round quality of a successfully loaded
// batch: squared corroborated precision, times a freshness factor,
// times a near-total-duplication penalty. Squaring precision makes a
// half-poisoned feed score ~0.25 — well under the default quarantine
// line — while an honest 95%-precise feed stays near 0.9.
func (m *Mesh) scoreBatch(f *feed, batch Batch, now time.Time, votes map[netaddr.Addr]int, loadedPeers int) float64 {
	n := batch.Addrs.Len()

	// Duplicate ratio against the previous load. Deliberately mild and
	// only for near-total duplication: a slow-moving honest blocklist is
	// normal, and a frozen feed replaying one batch forever is
	// content-indistinguishable from it — so the penalty bottoms out at
	// 0.75, a down-weight rather than a quarantine trigger.
	dup := 0.0
	if n > 0 && f.prevBatch.Len() > 0 {
		dup = float64(batch.Addrs.Intersect(f.prevBatch).Len()) / float64(n)
	}
	f.lastDup = dup
	f.gDup.Set(permille(dup))
	dupFactor := 1.0
	if dup > 0.9 {
		dupFactor = 1 - 0.25*math.Min((dup-0.9)/0.1, 1)
	}

	// Precision is cross-feed corroboration: the share of the feed's
	// blocks that the merge would list at equal weights, that is, that
	// at least a Threshold share of the loaded, non-quarantined feeds,
	// this one included, reported this round. A clique of poisoners
	// smaller than that share cannot vouch for its own blocks. With
	// fewer than three voters, this feed among them, there is no quorum
	// to corroborate against, and an empty feed is useless, not hostile:
	// either way precision stays 1 rather than quarantine the feed.
	precision := 1.0
	self := 0
	if f.state == StateQuarantined {
		self = 1 // its vote is not in the map; count it as if re-admitted
	}
	if voters := float64(loadedPeers + self); voters >= 3 && f.roundBits.Len() > 0 {
		corroborated := 0
		f.roundBits.Each(func(a netaddr.Addr) bool {
			if float64(votes[a]+self)/voters >= m.cfg.Threshold {
				corroborated++
			}
			return true
		})
		precision = float64(corroborated) / float64(f.roundBits.Len())
	}
	f.lastFP = 1 - precision
	f.gFP.Set(permille(f.lastFP))

	// Freshness: full credit up to maxLagIntervals intervals, then
	// proportional decay.
	lag := time.Duration(0)
	if !batch.AsOf.IsZero() && batch.AsOf.Before(now) {
		lag = now.Sub(batch.AsOf)
	}
	f.lastLag = lag
	f.gLagMS.Set(lag.Milliseconds())
	fresh := 1.0
	if maxLag := maxLagIntervals * m.cfg.Interval; lag > maxLag {
		fresh = float64(maxLag) / float64(lag)
	}

	f.prevBatch = batch.Addrs
	return precision * precision * fresh * dupFactor
}

// transition moves a feed between states, emitting the metric, log, and
// flight-event trail. Callers hold m.mu.
func (m *Mesh) transition(f *feed, to State, now time.Time) {
	from := f.state
	f.state = to
	name := f.src.Name()
	switch to {
	case StateQuarantined:
		f.probationOK = 0
		m.mQuarantines.Inc()
		reason := "quality below threshold"
		if f.breaker.Open() {
			reason = "breaker open"
		}
		meshLog.Warn("feed quarantined", "feed", name, "from", from.String(),
			"quality", fmt.Sprintf("%.3f", f.quality), "reason", reason)
		m.events.Record(flight.Event{
			Kind: flight.KindMesh, Flags: flight.FlagErr,
			Name: name, Verdict: "quarantine", Detail: reason,
			Value: permille(f.quality),
		})
	case StateProbation:
		meshLog.Info("feed entered probation", "feed", name,
			"needed", ProbationLoads)
		m.events.Record(flight.Event{
			Kind: flight.KindMesh, Name: name, Verdict: "probation",
			Value: int64(f.probationOK),
		})
	case StateHealthy:
		m.mReadmits.Inc()
		meshLog.Info("feed re-admitted", "feed", name,
			"quality", fmt.Sprintf("%.3f", f.quality))
		m.events.Record(flight.Event{
			Kind: flight.KindMesh, Flags: flight.FlagRecovered,
			Name: name, Verdict: "readmitted", Value: permille(f.quality),
		})
	}
}

// merge computes the weighted-vote merged block set and each block's
// reason (see Batch.Reasons; ties go to source order). Callers hold m.mu.
func (m *Mesh) merge() (ipset.Set, map[netaddr.Addr]string) {
	votes := map[netaddr.Addr]float64{}
	var total float64
	for _, f := range m.feeds {
		if f.weight <= weightEpsilon || f.contribBits.Len() == 0 {
			continue
		}
		total += f.weight
		w := f.weight
		f.contribBits.Each(func(a netaddr.Addr) bool {
			votes[a] += w
			return true
		})
	}
	if total == 0 {
		m.contrib = nil
		return ipset.Set{}, map[netaddr.Addr]string{}
	}
	b := ipset.NewBuilder(len(votes))
	contrib := make(map[netaddr.Addr][]string)
	why := make(map[netaddr.Addr]string)
	for a, v := range votes {
		if v/total < m.cfg.Threshold {
			continue
		}
		b.Add(a)
		var names []string
		reason, heaviest := "feedmesh", 0.0
		for _, f := range m.feeds {
			if f.weight > weightEpsilon && f.contribBits.Contains(a) {
				names = append(names, f.src.Name())
				if r, ok := f.contribReasons[a]; ok && f.weight > heaviest {
					reason, heaviest = r, f.weight
				}
			}
		}
		sort.Strings(names)
		contrib[a] = names
		why[a] = reason
	}
	m.contrib = contrib
	return b.Build(), why
}

// Contributors reports which feeds voted the block containing addr
// into the current merged list (sorted by name; nil when the address
// is not listed or no merge has happened). The analytics scoreboard
// uses it to attribute served hits and confirmed predictions back to
// the feeds that supplied them.
func (m *Mesh) Contributors(addr netaddr.Addr) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := m.contrib[addr.Mask(Bits)]
	if len(names) == 0 {
		return nil
	}
	out := make([]string, len(names))
	copy(out, names)
	return out
}

// FeedStatus is one feed's externally visible health.
type FeedStatus struct {
	Name        string
	State       State
	Quality     float64
	Weight      float64
	DupRatio    float64
	FPRate      float64
	Lag         time.Duration
	Loads       uint64
	Failures    uint64
	BreakerOpen bool
	ConsecFails int
	LastSuccess time.Time
	LastError   string
	BatchAddrs  int
}

// Health labels the feed by the mesh's health rule: "healthy" when it
// counts toward the mesh's capacity, otherwise its state, or
// "never-loaded" when it is in the healthy state but has not loaded yet.
// Every view of feed health (/readyz, `uncleanctl status`, a bundle
// summary) prints this label.
func (f FeedStatus) Health() string {
	if f.State == StateHealthy && !countsHealthy(f.State, f.Loads) {
		return "never-loaded"
	}
	return f.State.String()
}

// Status is a point-in-time snapshot of the whole mesh.
type Status struct {
	Round        uint64
	MergedBlocks int
	Degraded     bool
	HealthyFeeds int
	TotalFeeds   int
	Feeds        []FeedStatus
}

// Status snapshots the mesh (feeds sorted by name).
func (m *Mesh) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		Round:        m.round,
		MergedBlocks: m.lastBits.Len(),
		Degraded:     m.degraded,
		TotalFeeds:   len(m.feeds),
	}
	for _, f := range m.feeds {
		if countsHealthy(f.state, f.loads) {
			st.HealthyFeeds++
		}
		st.Feeds = append(st.Feeds, FeedStatus{
			Name:        f.src.Name(),
			State:       f.state,
			Quality:     f.quality,
			Weight:      f.weight,
			DupRatio:    f.lastDup,
			FPRate:      f.lastFP,
			Lag:         f.lastLag,
			Loads:       f.loads,
			Failures:    f.failures,
			BreakerOpen: f.breaker.Open(),
			ConsecFails: f.breaker.Failures(),
			LastSuccess: f.lastSuccess,
			LastError:   f.lastErr,
			BatchAddrs:  f.lastBatchLen,
		})
	}
	sort.Slice(st.Feeds, func(i, j int) bool { return st.Feeds[i].Name < st.Feeds[j].Name })
	return st
}

// Handler serves Status as indented JSON — mount at /debug/mesh. The
// document is the one a diagnostics bundle carries as mesh.json, so
// `uncleanctl status` and `uncleanctl diagnose` decode one type.
func (m *Mesh) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Status()) //nolint:errcheck // client went away
	})
}

// HealthCheck returns an obs readiness check: failing while the mesh is
// degraded, with a detail line naming the feeds that do not count as
// healthy either way — quarantined, on probation, or never loaded.
func (m *Mesh) HealthCheck() obs.Check {
	return func() (bool, string) {
		st := m.Status()
		detail := fmt.Sprintf("%d/%d feeds healthy", st.HealthyFeeds, st.TotalFeeds)
		var bad []string
		for _, f := range st.Feeds {
			if !countsHealthy(f.State, f.Loads) {
				bad = append(bad, f.Name+"="+f.Health())
			}
		}
		if len(bad) > 0 {
			detail += " (" + strings.Join(bad, " ") + ")"
		}
		if st.Degraded {
			return false, detail + "; degraded: serving last-good list"
		}
		return true, detail
	}
}

// permille scales a ratio to an int64 gauge value (obs gauges are
// integer-only).
func permille(x float64) int64 { return int64(math.Round(x * 1000)) }
