// Package prof is the continuous profiler: it collects short, bounded
// delta profiles of the running daemon on a schedule — a windowed CPU
// burst, heap and goroutine profiles — and keeps a small in-memory ring
// of the most recent ones per kind. The point is not live profiling (the
// /debug/pprof endpoints already do that); it is having the profiles
// from *just before* an incident already in hand when the watchdog
// captures a diagnostics bundle, because by the time a human attaches a
// profiler the interesting behaviour is gone.
//
// Overhead is budgeted by construction: CPU profiling only runs for
// CPUDuration out of every Interval (duty cycle capped at 10%), and the
// other kinds are point-in-time snapshots costing a stop-the-world of
// microseconds plus one buffer. Steady-state cost between collections
// is zero — there is no always-on instrumentation.
package prof

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"unclean/internal/obs"
)

// Profile kinds. CPU is a windowed delta by nature; heap and goroutine
// are point-in-time snapshots whose deltas fall out of comparing
// consecutive ring entries.
const (
	KindCPU       = "cpu"
	KindHeap      = "heap"
	KindGoroutine = "goroutine"
)

// keepPerKind is how many profiles of each kind the ring retains.
const keepPerKind = 4

// Config tunes the profiler. The zero value collects heap and
// goroutine profiles every minute with a 2s CPU burst.
type Config struct {
	// Interval is the collection cycle period (default 1m, minimum 1s).
	Interval time.Duration
	// CPUDuration is the length of the windowed CPU profile per cycle
	// (0 = default 2s; negative disables CPU profiling). Clamped to
	// Interval/10 so the profiling duty cycle — the overhead budget —
	// never exceeds 10%.
	CPUDuration time.Duration
	// Registry receives the profiler's own metrics (nil = obs.Default()).
	Registry *obs.Registry
}

// withDefaults applies the documented defaults and clamps.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.Interval < time.Second {
		c.Interval = time.Second
	}
	switch {
	case c.CPUDuration < 0:
		c.CPUDuration = 0
	case c.CPUDuration == 0:
		c.CPUDuration = 2 * time.Second
	}
	if max := c.Interval / 10; c.CPUDuration > max {
		c.CPUDuration = max
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// Profile is one collected profile: the gzipped pprof proto plus the
// metadata the bundle manifest renders.
type Profile struct {
	// Kind is one of the Kind* constants.
	Kind string
	// Seq is the per-kind collection sequence number (1-based).
	Seq uint64
	// TakenAt is when collection finished.
	TakenAt time.Time
	// Duration is the profiled window (CPU) or 0 (snapshots).
	Duration time.Duration
	// Data is the gzipped pprof protobuf, as written by runtime/pprof.
	Data []byte
}

// Name renders the deterministic file name the bundle stores the
// profile under: "<kind>-<seq>.pprof", zero-padded so names sort.
func (p Profile) Name() string {
	return fmt.Sprintf("%s-%06d.pprof", p.Kind, p.Seq)
}

// Profiler collects and retains profiles. Construct with New; all
// methods are safe for concurrent use.
type Profiler struct {
	cfg Config

	mu    sync.Mutex
	rings map[string][]Profile
	seq   map[string]uint64

	mCollections *obs.Counter
	mErrors      *obs.Counter
	gBytes       *obs.Gauge
	gLastUnix    *obs.Gauge

	now func() time.Time
}

// New builds a profiler (collection starts when Run is called, or on
// demand via CollectOnce).
func New(cfg Config) *Profiler {
	cfg = cfg.withDefaults()
	return &Profiler{
		cfg:   cfg,
		rings: make(map[string][]Profile),
		seq:   make(map[string]uint64),
		mCollections: cfg.Registry.Counter("unclean_prof_collections_total",
			"Completed profile collections."),
		mErrors: cfg.Registry.Counter("unclean_prof_errors_total",
			"Profile collections that failed (e.g. a concurrent CPU profile)."),
		gBytes: cfg.Registry.Gauge("unclean_prof_ring_bytes",
			"Total bytes of retained profiles."),
		gLastUnix: cfg.Registry.Gauge("unclean_prof_last_collection_unix",
			"Unix time of the last completed collection cycle."),
		now: time.Now,
	}
}

// Clock injects a time source for the metadata stamps (tests); nil
// restores time.Now. The CPU burst always uses real time.
func (p *Profiler) Clock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	p.mu.Lock()
	p.now = now
	p.mu.Unlock()
}

// Run collects on the configured interval until ctx is done. One cycle
// runs immediately, so a daemon has profiles from its first minute.
func (p *Profiler) Run(ctx context.Context) {
	p.CollectOnce(ctx)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.CollectOnce(ctx)
		}
	}
}

// CollectOnce runs one collection cycle: the snapshot kinds, then the
// CPU burst (which sleeps for CPUDuration, honouring ctx). Errors are
// counted and logged, never fatal — a diagnostics layer must not take
// the daemon down.
func (p *Profiler) CollectOnce(ctx context.Context) {
	for _, kind := range []string{KindHeap, KindGoroutine} {
		p.snapshot(kind)
	}
	if p.cfg.CPUDuration > 0 {
		p.cpuBurst(ctx)
	}
	p.mu.Lock()
	last := p.now()
	p.mu.Unlock()
	p.gLastUnix.Set(last.Unix())
}

// snapshot collects one point-in-time profile kind into the ring.
func (p *Profiler) snapshot(kind string) {
	lp := pprof.Lookup(kind)
	if lp == nil {
		p.mErrors.Inc()
		return
	}
	var buf bytes.Buffer
	if err := lp.WriteTo(&buf, 0); err != nil {
		p.mErrors.Inc()
		obs.Logger("prof").Error("profile snapshot failed", "kind", kind, "error", err)
		return
	}
	p.keep(Profile{Kind: kind, Data: buf.Bytes()})
}

// cpuBurst runs a windowed CPU profile. StartCPUProfile fails when a
// profile is already running (an operator hitting /debug/pprof/profile
// wins); the cycle just skips its burst.
func (p *Profiler) cpuBurst(ctx context.Context) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		p.mErrors.Inc()
		return
	}
	start := time.Now()
	select {
	case <-ctx.Done():
	case <-time.After(p.cfg.CPUDuration):
	}
	pprof.StopCPUProfile()
	p.keep(Profile{Kind: KindCPU, Duration: time.Since(start), Data: buf.Bytes()})
}

// keep stamps and appends pr to its kind's ring, evicting the oldest
// beyond keepPerKind, and refreshes the footprint gauge.
func (p *Profiler) keep(pr Profile) {
	p.mu.Lock()
	p.seq[pr.Kind]++
	pr.Seq = p.seq[pr.Kind]
	pr.TakenAt = p.now()
	ring := append(p.rings[pr.Kind], pr)
	if len(ring) > keepPerKind {
		ring = ring[len(ring)-keepPerKind:]
	}
	p.rings[pr.Kind] = ring
	total := int64(0)
	for _, r := range p.rings {
		for i := range r {
			total += int64(len(r[i].Data))
		}
	}
	p.mu.Unlock()
	p.mCollections.Inc()
	p.gBytes.Set(total)
}

// Snapshot returns every retained profile, sorted by kind then
// sequence — the deterministic order the bundle writer streams them in.
func (p *Profiler) Snapshot() []Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Profile
	for _, ring := range p.rings {
		out = append(out, ring...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
