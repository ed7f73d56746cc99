// Command dnsbld serves an uncleanliness-derived block list over DNS in
// the DNSBL convention (query d.c.b.a.<zone>, get 127.0.0.x if listed) —
// the operational delivery mechanism the paper's §2 cites (Spamhaus ZEN).
//
// Every list comes out of one pipeline, the feed mesh (internal/feedmesh).
// Its feeds are the simulated world by default (its four ground-truth
// reports), the -reports directory of *.report files, or one per -feed
// NAME=PATH (a report directory or a phishfeed incident file). Report
// feeds fold through the time-decaying tracker and list the /24s scoring
// -threshold or more, each answered with its dominant dimension's code.
// A first round runs before the sockets open, fatal if no feed loads;
// with -reload one runs every interval: feeds load with retries, are
// scored, quarantined when they misbehave, and merged into a
// reputation-weighted list that needs -mesh-threshold agreement. The
// same share is the corroboration quorum: a feed's block counts toward
// its precision only when that share of the loaded feeds, the feed
// itself included, reported it. With too few healthy feeds the daemon
// keeps its last-good list.
// -checkpoint saves the -reports tracker crash-safely (temp → fsync →
// rename, CRC32 trailer, one .prev generation) after every successful
// load and serves it when the first load fails, so a dead feed plus a
// restart still serves.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the shards finish the
// batch in hand and the serving counters are printed.
//
// With -metrics the daemon exposes its observability surface over HTTP:
// /metrics (Prometheus text), /metrics.json (JSON snapshot with latency
// quantiles, rolling-window rates, and SLO burn), /healthz (liveness),
// /readyz (readiness: feed health, feed staleness, shed rate),
// /debug/mesh (the feed mesh's feedmesh.Status: every feed's state,
// quality, weight, lag and load counts, the document `uncleanctl status`
// prints its feed table from), /debug/events (the flight-recorder ring
// of recent wide events),
// /debug/topk (sampled query analytics: top clients, hottest subnets,
// unique-client estimate, and the prediction scoreboard — addresses
// queried before they were listed, with query→listing lag quantiles),
// /debug/pprof/ and /debug/vars. -analytics-sample tunes the 1-in-N
// sketch sampling (0 disables the tap entirely). Operational events (reloads, breaker
// trips, checkpoint recoveries) are structured slog records on stderr;
// -log-format json selects machine-readable logs and -log-level debug
// more detail (each flag overrides its UNCLEAN_LOG_FORMAT /
// UNCLEAN_LOG_LEVEL environment variable; the env applies when the flag
// is absent).
//
//	dnsbld -listen 127.0.0.1:5354 -metrics 127.0.0.1:9090 -scale 500 &
//	dig @127.0.0.1 -p 5354 2.1.1.10.bl.unclean.example A
//	curl -s http://127.0.0.1:9090/metrics | grep unclean_dnsbl
//	curl -s http://127.0.0.1:9090/readyz
//	curl -s 'http://127.0.0.1:9090/debug/events?kind=query&n=10'
//
// UDP queries are served by batched shard loops: -shards SO_REUSEPORT
// sockets (one per core by default, one shared socket where the
// platform lacks SO_REUSEPORT), each moving -batch datagrams per
// recvmmsg/sendmmsg syscall. -tcp adds a TCP listener on the same
// address, DNS's other standard transport. Every answer fits the
// 512-byte UDP limit, so none is truncated.
//
// Per-feed health rides on /debug/mesh, /metrics (unclean_feedmesh_*)
// and /readyz: feed_mesh names unhealthy feeds and fails while the mesh
// keeps its last-good list, and with -reload feed_fresh fails once no
// feed has loaded for two intervals.
//
// Usage:
//
//	dnsbld [-listen ADDR] [-zone bl.unclean.example] [-threshold 0.6]
//	       [-scale N] [-seed N] [-selfcheck N] [-metrics ADDR]
//	       [-reports DIR] [-reload DUR] [-checkpoint PATH] [-halflife DUR]
//	       [-shards N] [-batch N] [-tcp] [-analytics-sample N]
//	       [-feed NAME=PATH ...] [-mesh-threshold F]
//	       [-log-format text|json] [-log-level LEVEL]
//	       [-profile DUR] [-watchdog DUR] [-watch RULE ...] [-bundle-dir DIR]
//
// The diagnostics autopilot rides along by default: a continuous
// profiler keeps a small ring of recent CPU/heap/goroutine profiles
// (-profile tunes the cycle, 0 disables), and an anomaly watchdog
// evaluates declarative rules every -watchdog interval over the series
// /metrics exposes — SLO burn, shed permille, panics, goroutine/RSS
// growth slopes, mesh quarantines and degradation. When a rule holds
// long enough it captures a diagnostics bundle (profiles, flight dump,
// metrics, health, mesh state, the rule's evidence) into -bundle-dir
// (or $UNCLEAN_BUNDLE_DIR) as one atomic tar.gz; /debug/bundle serves
// the same capture on demand, and `uncleanctl diagnose -summarize FILE`
// triages one offline. -watch adds or overrides rules, naming a series
// exactly as /metrics prints it, e.g.
// -watch 'shed: unclean_dnsbl_shed_1m_permille{zone="bl.unclean.example"} > 500 hold=6 cooldown=30m'.
// A rule whose series the daemon does not expose when it starts is a
// startup error.
//
// A panic or a fatal error after the flags parse leaves exactly one
// bundle in the same directory, with reason "panic: ..." or
// "fatal: ...", its flight ring ending in the server/crash event. A
// capture still unfinished after five seconds is abandoned so the
// process dies anyway.
package main

import (
	"cmp"
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/dnsbl"
	"unclean/internal/experiments"
	"unclean/internal/feedmesh"
	"unclean/internal/netaddr"
	"unclean/internal/obs"
	"unclean/internal/obs/bundle"
	"unclean/internal/obs/flight"
	"unclean/internal/obs/prof"
	"unclean/internal/obs/watchdog"
	"unclean/internal/report"
)

// logger is the daemon's component logger; swap the sink process-wide
// with obs.SetLogOutput (tests do).
var logger = obs.Logger("dnsbld")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dnsbld:", err)
		os.Exit(1)
	}
}

type options struct {
	listen, zone    string
	threshold       float64
	scaleDen        float64
	seed            uint64
	selfcheck       int
	metrics         string
	reports         string
	reload          time.Duration
	checkpoint      string
	halfLife        time.Duration
	shards, batch   int
	analyticsSample int
	tcp             bool
	feeds           []string
	meshThreshold   float64
	logFormat       string
	logLevel        string
	profile         time.Duration
	watchdogTick    time.Duration
	watchRules      []string
	bundleDir       string
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("dnsbld", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.listen, "listen", "127.0.0.1:5354", "UDP listen address")
	fs.StringVar(&o.zone, "zone", "bl.unclean.example", "DNSBL zone")
	fs.Float64Var(&o.threshold, "threshold", 0.6, "aggregate score threshold for listing")
	fs.Float64Var(&o.scaleDen, "scale", 500, "scale denominator for the generated world")
	fs.Uint64Var(&o.seed, "seed", 20061001, "world seed")
	fs.IntVar(&o.selfcheck, "selfcheck", 3, "after startup, query this many listed blocks and exit (0 = serve forever)")
	fs.StringVar(&o.metrics, "metrics", "", "HTTP address for the diagnostic surface: /metrics, /metrics.json, /healthz, /readyz, /debug/mesh, /debug/events, /debug/topk, /debug/bundle, /debug/pprof/, /debug/vars (empty disables)")
	fs.StringVar(&o.reports, "reports", "", "serve from this directory of *.report files instead of a generated world")
	fs.DurationVar(&o.reload, "reload", 0, "reload every feed at this interval (0 disables; -feed requires it)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "crash-safe checkpoint of the -reports tracker, saved after every load and served when the first load fails")
	fs.DurationVar(&o.halfLife, "halflife", 42*24*time.Hour, "tracker evidence half-life")
	fs.IntVar(&o.shards, "shards", 0, "serve with this many batched SO_REUSEPORT shards (0 = one per core)")
	fs.IntVar(&o.batch, "batch", 0, "datagrams per batched syscall (0 = default)")
	fs.IntVar(&o.analyticsSample, "analytics-sample", 64,
		"sample 1 in N packets into the query-analytics sketches, rounded to a power of two, N at most 2^32 (0 disables analytics and /debug/topk)")
	fs.BoolVar(&o.tcp, "tcp", false, "also answer queries over TCP on the same address")
	fs.Func("feed", "mesh feed as NAME=PATH (report directory or phishfeed file); repeatable", func(v string) error {
		o.feeds = append(o.feeds, v)
		return nil
	})
	fs.Float64Var(&o.meshThreshold, "mesh-threshold", feedmesh.DefaultConfig().Threshold,
		"weighted vote share a block needs to enter the merged mesh list, and the share of the loaded feeds (the reporting feed included) that must report a feed's block to corroborate it")
	fs.StringVar(&o.logFormat, "log-format", "", "log format: text or json (overrides "+formatEnv+"; empty defers to env)")
	fs.StringVar(&o.logLevel, "log-level", "", "log level: debug, info, warn, error (overrides "+levelEnv+"; empty defers to env)")
	fs.DurationVar(&o.profile, "profile", time.Minute,
		"continuous-profiler collection interval (0 disables; CPU burst is capped at a tenth of this)")
	fs.DurationVar(&o.watchdogTick, "watchdog", 10*time.Second,
		"anomaly-watchdog evaluation interval (0 disables; rule over= and hold= counts are in these ticks)")
	fs.Func("watch", "extra watchdog rule as 'NAME: SERIES OP VALUE [over=N] [hold=N] [cooldown=DUR]', SERIES spelled as /metrics prints it (no whitespace) and exposed when the daemon starts; repeatable, a NAME matching a default rule replaces it", func(v string) error {
		o.watchRules = append(o.watchRules, v)
		return nil
	})
	fs.StringVar(&o.bundleDir, "bundle-dir", "",
		"directory for diagnostics bundles from watchdog triggers, panics and fatal errors (overrides "+bundle.DirEnv+"; empty defers to env, both empty disables file capture)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.scaleDen < 1 {
		return nil, fmt.Errorf("-scale must be >= 1")
	}
	if o.threshold < 0 || o.threshold > 1 {
		return nil, fmt.Errorf("-threshold must be in [0, 1]")
	}
	// The serving knobs all use documented sentinels (0 = default or
	// disabled); anything below those is a typo worth naming rather than
	// a mode.
	if o.shards < 0 {
		return nil, fmt.Errorf("-shards must be 0 (one per core) or a positive shard count; got %d", o.shards)
	}
	if o.batch < 0 {
		return nil, fmt.Errorf("-batch must be 0 (default) or a positive batch size; got %d", o.batch)
	}
	if o.reload < 0 {
		return nil, fmt.Errorf("-reload must be 0 (disabled) or a positive interval; got %s", o.reload)
	}
	if o.selfcheck < 0 {
		return nil, fmt.Errorf("-selfcheck must be 0 (serve forever) or a positive probe count; got %d", o.selfcheck)
	}
	if o.analyticsSample < 0 || uint64(o.analyticsSample) > dnsbl.MaxAnalyticsSample {
		return nil, fmt.Errorf("-analytics-sample must be 0 (disabled) or a positive 1-in-N rate of at most %d; got %d",
			uint64(dnsbl.MaxAnalyticsSample), o.analyticsSample)
	}
	if o.meshThreshold <= 0 || o.meshThreshold > 1 {
		return nil, fmt.Errorf("-mesh-threshold must be in (0, 1]; got %g", o.meshThreshold)
	}
	if o.checkpoint != "" && o.reports == "" {
		return nil, fmt.Errorf("-checkpoint applies to the -reports feed only")
	}
	if len(o.feeds) > 0 {
		if o.reports != "" {
			return nil, fmt.Errorf("-feed and -reports are exclusive: -reports is the one-feed mesh")
		}
		if o.reload <= 0 {
			return nil, fmt.Errorf("-feed requires -reload: the mesh polls every feed at that interval")
		}
		seen := map[string]bool{}
		for _, f := range o.feeds {
			name, path, ok := strings.Cut(f, "=")
			if !ok || name == "" || path == "" {
				return nil, fmt.Errorf("-feed wants NAME=PATH, got %q", f)
			}
			if seen[name] {
				return nil, fmt.Errorf("-feed name %q given twice", name)
			}
			seen[name] = true
		}
	}
	if o.profile < 0 {
		return nil, fmt.Errorf("-profile must be 0 (disabled) or a positive interval; got %s", o.profile)
	}
	if o.watchdogTick < 0 {
		return nil, fmt.Errorf("-watchdog must be 0 (disabled) or a positive interval; got %s", o.watchdogTick)
	}
	if o.bundleDir == "" {
		o.bundleDir = os.Getenv(bundle.DirEnv)
	}
	// Rule syntax errors are configuration errors: refuse to start
	// rather than run with silently fewer rules than the operator wrote.
	for _, r := range o.watchRules {
		if _, err := watchdog.ParseRule(r); err != nil {
			return nil, err
		}
	}
	if o.logFormat != "" && o.logFormat != "text" && o.logFormat != "json" {
		return nil, fmt.Errorf("-log-format must be text or json")
	}
	if _, ok := obs.ParseLevel(o.logLevel); !ok {
		return nil, fmt.Errorf("-log-level must be debug, info, warn, or error")
	}
	return o, nil
}

// The env names the obs package reads at init; flags override them.
const (
	formatEnv = "UNCLEAN_LOG_FORMAT"
	levelEnv  = "UNCLEAN_LOG_LEVEL"
)

// applyLogFlags re-points the process log sink when either log flag was
// given. Precedence per knob is flag > environment > default: a flag
// left empty keeps whatever the env already configured at init, so
// `-log-level debug` alone does not silently reset a json env format.
func applyLogFlags(o *options) {
	if o.logFormat == "" && o.logLevel == "" {
		return
	}
	format := o.logFormat
	if format == "" {
		format = os.Getenv(formatEnv)
	}
	level := o.logLevel
	if level == "" {
		level = os.Getenv(levelEnv)
	}
	lv, _ := obs.ParseLevel(level)
	obs.SetLogOutput(os.Stderr, strings.EqualFold(format, "json"), lv)
}

// metricsMux assembles the daemon's diagnostic HTTP surface: Prometheus
// text + JSON exposition of the merged registries, health endpoints,
// the feed mesh's status, the flight-recorder event ring, the analytics
// top-k view, pprof profiling, and expvar. A dedicated mux (not
// http.DefaultServeMux) keeps the surface explicit and testable. A nil
// health serves an always-ready check set; a nil recorder serves the
// process-default ring; a nil analytics leaves /debug/topk unmounted; a
// nil capture leaves /debug/bundle unmounted. The mesh is required:
// every dnsbld serves through one.
func metricsMux(health *obs.Health, events *flight.Recorder, mesh *feedmesh.Mesh, analytics *dnsbl.Analytics, capture func() bundle.CaptureConfig, regs ...*obs.Registry) *http.ServeMux {
	if health == nil {
		health = obs.NewHealth()
	}
	if events == nil {
		events = flight.Default()
	}
	mux := http.NewServeMux()
	expo := obs.Handler(regs...)
	mux.Handle("/metrics", expo)
	mux.Handle("/metrics.json", expo)
	mux.Handle("/healthz", health.LiveHandler())
	mux.Handle("/readyz", health.ReadyHandler())
	mux.Handle("/debug/mesh", mesh.Handler())
	mux.Handle("/debug/events", events.Handler())
	if analytics != nil {
		mux.Handle("/debug/topk", analytics.Handler())
	}
	if capture != nil {
		mux.Handle("/debug/bundle", bundle.Handler(capture))
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveMetrics binds the diagnostic HTTP listener and serves it in the
// background. The returned shutdown func closes the listener; the
// returned address is the bound one (useful with ":0").
func serveMetrics(addr string, health *obs.Health, events *flight.Recorder, mesh *feedmesh.Mesh, analytics *dnsbl.Analytics, capture func() bundle.CaptureConfig, regs ...*obs.Registry) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics listen: %w", err)
	}
	hs := &http.Server{Handler: metricsMux(health, events, mesh, analytics, capture, regs...)}
	go hs.Serve(ln) //nolint:errcheck // Close below is the shutdown path
	endpoints := "/metrics /metrics.json /healthz /readyz /debug/mesh /debug/events /debug/pprof/ /debug/vars"
	if analytics != nil {
		endpoints += " /debug/topk"
	}
	if capture != nil {
		endpoints += " /debug/bundle"
	}
	logger.Info("metrics listening",
		"addr", ln.Addr().String(),
		"endpoints", endpoints)
	return ln.Addr().String(), func() { hs.Close() }, nil
}

// buildMesh builds the mesh over the -reports directory, the -feed paths
// (a directory is a report feed, a file a phishfeed) or else the world.
// Paths must exist at startup — a feed that dies later is the mesh's
// problem, a feed that never existed is a configuration error.
func buildMesh(o *options) (*feedmesh.Mesh, error) {
	fold := feedmesh.Fold{HalfLife: o.halfLife, Threshold: o.threshold}
	var sources []feedmesh.Source
	switch {
	case o.reports != "":
		sources = append(sources, feedmesh.NewDirSource("reports", o.reports, fold, o.checkpoint))
	case len(o.feeds) > 0:
		for _, f := range o.feeds {
			name, path, _ := strings.Cut(f, "=")
			st, err := os.Stat(path)
			if err != nil {
				return nil, fmt.Errorf("-feed %s: %w", name, err)
			}
			if st.IsDir() {
				sources = append(sources, feedmesh.NewDirSource(name, path, fold, ""))
			} else {
				sources = append(sources, feedmesh.NewPhishSource(name, path))
			}
		}
	default:
		src, err := worldSource(o, fold)
		if err != nil {
			return nil, err
		}
		sources = append(sources, src)
	}
	cfg := feedmesh.DefaultConfig()
	cfg.Interval = cmp.Or(o.reload, cfg.Interval) // without -reload only one round runs
	cfg.Threshold = o.meshThreshold
	return feedmesh.New(cfg, sources...)
}

// worldSource generates the simulated world and folds its four
// ground-truth reports into a batch once; every load returns that batch.
func worldSource(o *options, fold feedmesh.Fold) (feedmesh.Source, error) {
	cfg := experiments.Default()
	cfg.Scale = 1 / o.scaleDen
	cfg.Seed = o.seed
	cfg.Draws = 1 // no estimates needed; only reports
	logger.Info("generating world", "scale_denominator", o.scaleDen, "seed", o.seed)
	ds, err := experiments.Build(cfg)
	if err != nil {
		return nil, err
	}
	inv := &report.Inventory{}
	for _, tag := range []string{"bot", "scan", "spam", "phish"} {
		inv.Add(ds.Report(tag))
	}
	b, err := fold.Batch(inv)
	if err != nil {
		return nil, err
	}
	return feedmesh.SourceFunc("world", func(context.Context) (feedmesh.Batch, error) { return b, nil }), nil
}

// firstRound runs the mesh's first round before the sockets open, so
// they open with a real list. A round in which no source loads is fatal:
// there is nothing to serve.
func firstRound(ctx context.Context, mesh *feedmesh.Mesh) (*blocklist.Trie, error) {
	mesh.Tick(ctx)
	var errs []string
	for _, f := range mesh.Status().Feeds {
		if f.Loads > 0 { // List is nil when nothing scored high enough
			return cmp.Or(mesh.List(), &blocklist.Trie{}), nil
		}
		errs = append(errs, f.Name+": "+f.LastError)
	}
	return nil, fmt.Errorf("no feed loaded: %s", strings.Join(errs, "; "))
}

// shedUnreadyRate is the one-minute shed fraction above which /readyz
// reports the instance overloaded: failing to send more than half of
// its answers means a balancer should stop sending new queries.
const shedUnreadyRate = 0.5

// buildHealth wires the daemon's readiness checks: the one-minute shed
// rate, the mesh's feed health and, when the feeds reload, their
// staleness against the reload interval.
func buildHealth(o *options, srv *dnsbl.Server, mesh *feedmesh.Mesh) *obs.Health {
	health := obs.NewHealth()
	health.SetInfo("zone", o.zone)
	health.AddCheck("shed", func() (bool, string) {
		rate := srv.ShedRate(time.Minute)
		if rate > shedUnreadyRate {
			return false, fmt.Sprintf("shedding %.0f%% of queries over the last minute", rate*100)
		}
		return true, fmt.Sprintf("shed rate %.2f over the last minute", rate)
	})
	health.AddCheck("feed_mesh", mesh.HealthCheck())
	if o.reload > 0 {
		health.AddCheck("feed_fresh", func() (bool, string) {
			var last time.Time
			for _, f := range mesh.Status().Feeds {
				if f.LastSuccess.After(last) {
					last = f.LastSuccess
				}
			}
			age := time.Since(last)
			// Two missed reload cycles mean the list is stale, whether a
			// breaker has noticed or not: a hung load never fails.
			if age > 2*o.reload {
				return false, fmt.Sprintf("last successful load %s ago (reload interval %s)", age.Round(time.Second), o.reload)
			}
			return true, fmt.Sprintf("loaded %s ago", age.Round(time.Second))
		})
	}
	return health
}

// defaultWatchRules is the watchdog's built-in rule set, phrased in the
// same syntax -watch accepts (a -watch rule with a matching name
// replaces the default) over series /metrics exposes. All counts are in
// -watchdog ticks (default 10s): over=30 is a five-minute slope window,
// hold=3 demands thirty seconds of sustained breach before a capture.
func defaultWatchRules(o *options) []watchdog.Rule {
	zone := fmt.Sprintf("zone=%q", strings.TrimSuffix(o.zone, "."))
	rules := []string{
		// Error budget burning >10x on the five-minute window: the SLO
		// will be gone within the hour.
		"slo-burn: unclean_dnsbl_availability_burn_rate{" + zone + `,window="5m"} > 10 hold=3 cooldown=10m`,
		// A fifth of answers shed on send faults for 30s.
		"shed: unclean_dnsbl_shed_1m_permille{" + zone + "} > 200 hold=3 cooldown=10m",
		// Any handler panic since the last tick.
		"panic: unclean_dnsbl_panics_total{" + zone + "} > 0 over=1 cooldown=5m",
		// Sustained growth, not absolute size: +500 goroutines or
		// +256MB RSS over five minutes is a leak in progress.
		"goroutine-growth: unclean_runtime_goroutines > 500 over=30 hold=3 cooldown=15m",
		"rss-growth: unclean_runtime_rss_bytes > 268435456 over=30 hold=3 cooldown=15m",
	}
	if o.reload > 0 {
		rules = append(rules,
			// Any new quarantine transition since the last tick.
			"mesh-quarantine: unclean_feedmesh_quarantines_total > 0 over=1 cooldown=5m",
			"mesh-degraded: unclean_feedmesh_degraded >= 1 hold=2 cooldown=10m")
	}
	out := make([]watchdog.Rule, len(rules))
	for i, s := range rules {
		r, err := watchdog.ParseRule(s)
		if err != nil {
			panic("dnsbld: built-in watchdog rule: " + err.Error()) // unreachable: rules are constants
		}
		out[i] = r
	}
	return out
}

func run(ctx context.Context, args []string) (err error) {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	applyLogFlags(o)
	// From here on a panic or an error return leaves one crash bundle
	// in -bundle-dir. Until the daemon is wired the bundle holds the
	// process-wide registry and flight ring; captureCfg is swapped for
	// the full set below.
	captureCfg := func() bundle.CaptureConfig {
		return bundle.CaptureConfig{Flight: flight.Default()}
	}
	defer bundle.HandleCrash(o.bundleDir, func() bundle.CaptureConfig { return captureCfg() }, &err)

	// Build the initial list. A dead feed at startup degrades to whatever
	// subset of feeds still answers, and a dead -reports directory to its
	// checkpoint, instead of refusing to start.
	mesh, err := buildMesh(o)
	if err != nil {
		return err
	}
	list, err := firstRound(ctx, mesh)
	if err != nil {
		return err
	}

	// Bind the serving sockets: one SO_REUSEPORT socket per shard.
	conns, err := dnsbl.ListenShards(o.listen, o.shards)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	udpAddr := conns[0].LocalAddr().String()
	ms := mesh.Status()
	fmt.Printf("serving %d listed /24s from %d of %d feeds in zone %s on %s (threshold %.2f, vote threshold %.2f, %d sockets)\n",
		list.Len(), ms.HealthyFeeds, ms.TotalFeeds, o.zone, udpAddr, o.threshold, o.meshThreshold, len(conns))

	srv, err := dnsbl.NewServer(o.zone, list, 5*time.Minute)
	if err != nil {
		return err
	}
	// The analytics tap must exist before the shard loops start (they
	// capture it once); the mesh's contributor map attributes confirmed
	// predictions to the feeds that voted the block in.
	var analytics *dnsbl.Analytics
	if o.analyticsSample > 0 {
		analytics = srv.EnableAnalytics(o.analyticsSample)
		analytics.SetAttributor(mesh.Contributors)
	}
	mesh.OnSwap(srv.SetList)

	// Diagnostics autopilot: runtime gauges refreshed on every read of
	// the exposition (scrapes and watchdog ticks alike), the continuous
	// profiler, and one capture config every consumer (watchdog trigger,
	// /debug/bundle, the crash hook) goes through.
	obs.RegisterRuntimeGauges(obs.Default())
	health := buildHealth(o, srv, mesh)
	health.SetInfo("udp_addr", udpAddr)
	regs := []*obs.Registry{obs.Default(), srv.Metrics(), mesh.Metrics()}
	var profiler *prof.Profiler
	if o.profile > 0 {
		profiler = prof.New(prof.Config{Interval: o.profile})
	}
	start := time.Now()
	captureCfg = func() bundle.CaptureConfig {
		return bundle.CaptureConfig{
			Reason:     "manual",
			Registries: regs,
			Flight:     flight.Default(),
			Profiler:   profiler,
			Health:     health,
			MeshStatus: mesh.Status,
			Start:      start,
		}
	}
	var wd *watchdog.Watchdog
	if o.watchdogTick > 0 {
		// The rules read the registries /metrics and the bundle expose.
		wd = watchdog.New(watchdog.Config{
			Registries: regs,
			OnTrigger: func(t watchdog.Trigger) {
				// Without -bundle-dir the evidence still lands in logs
				// and the flight ring.
				cfg := captureCfg()
				cfg.Reason, cfg.Evidence, cfg.Trigger = "watchdog:"+t.Rule, t.Evidence, &t
				bundle.Save(o.bundleDir, cfg)
			},
		})
		rules := defaultWatchRules(o)
		for _, s := range o.watchRules {
			r, err := watchdog.ParseRule(s) // validated in parseFlags; kept load-bearing
			if err != nil {
				return err
			}
			rules = append(rules, r)
		}
		if err := wd.AddRule(rules...); err != nil {
			return err
		}
	}

	if o.metrics != "" {
		_, stopMetrics, err := serveMetrics(o.metrics, health, flight.Default(), mesh, analytics, captureCfg, regs...)
		if err != nil {
			return err
		}
		defer stopMetrics()
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if profiler != nil {
		go profiler.Run(sctx)
	}
	if wd != nil {
		go wd.Run(sctx, o.watchdogTick)
	}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- srv.ServeConns(sctx, conns, dnsbl.ShardConfig{Shards: o.shards, Batch: o.batch})
	}()

	// The TCP listener binds the address the UDP sockets resolved to, so
	// a client that falls back to TCP reaches the host:port it queried.
	var tcpErr chan error
	if o.tcp {
		ln, err := net.Listen("tcp", udpAddr)
		if err != nil {
			cancel()
			<-serveErr
			return fmt.Errorf("tcp listen: %w", err)
		}
		tcpErr = make(chan error, 1)
		go func() { tcpErr <- srv.ServeTCP(sctx, ln) }()
	}
	drainTCP := func() {
		if tcpErr != nil {
			<-tcpErr
		}
	}

	if o.selfcheck > 0 {
		// Demonstration mode: query a few listed blocks through the real
		// UDP path and exit.
		err := selfcheck(udpAddr, o, srv, list)
		cancel()
		<-serveErr // graceful drain before the socket closes
		drainTCP()
		return err
	}

	// Serving mode: run a mesh round every -reload and wait for shutdown.
	// The mesh's per-feed breakers stop retry storms against a feed that
	// stays broken across reloads.
	var reloadC <-chan time.Time
	if o.reload > 0 {
		tick := time.NewTicker(o.reload)
		defer tick.Stop()
		reloadC = tick.C
	}

	// Graceful shutdown, once ServeConns has returned.
	shutdown := func() error {
		drainTCP()
		st := srv.Snapshot()
		fmt.Printf("shutdown: %d queries (%d listed, %d malformed, %d dropped, %d shed)\n",
			st.Queries, st.Hits, st.Malformed, st.Dropped, st.Shed)
		ms := mesh.Status()
		fmt.Printf("mesh: round %d, %d/%d feeds healthy, %d merged blocks\n",
			ms.Round, ms.HealthyFeeds, ms.TotalFeeds, ms.MergedBlocks)
		return nil
	}
	for {
		select {
		case <-ctx.Done():
			<-serveErr
			return shutdown()
		case err := <-serveErr:
			if err == nil {
				// A clean stop: a cancellation that lands mid-reload can
				// reach this case before ctx.Done.
				return shutdown()
			}
			// The socket died underneath us; the crash hook captures the
			// bundle once run returns, so it shows the state after this
			// teardown and run's deferred closes.
			cancel()
			drainTCP()
			return err
		case <-reloadC:
			// The mesh runs its own per-feed breakers and logging; the
			// daemon only notes list changes.
			if mesh.Tick(ctx) {
				st := mesh.Status()
				logger.Info("mesh list swapped",
					"round", st.Round, "blocks", st.MergedBlocks,
					"healthy_feeds", st.HealthyFeeds, "degraded", st.Degraded)
			}
		}
	}
}

// selfcheck queries a few listed blocks through the real UDP path.
func selfcheck(addr string, o *options, srv *dnsbl.Server, list *blocklist.Trie) error {
	time.Sleep(50 * time.Millisecond)
	checked := 0
	var firstErr error
	list.Walk(func(e blocklist.Entry) bool {
		if checked >= o.selfcheck {
			return false
		}
		probe := e.Block.Base() + netaddr.Addr(9)
		listed, code, err := dnsbl.Lookup(addr, o.zone, probe, 2*time.Second)
		if err != nil {
			firstErr = err
			return false
		}
		fmt.Printf("selfcheck: %s -> listed=%v code=%s (%s)\n", probe, listed, code, e.Reason)
		checked++
		return true
	})
	if firstErr != nil {
		return firstErr
	}
	st := srv.Snapshot()
	fmt.Printf("selfcheck complete: %d queries served, %d listed\n", st.Queries, st.Hits)
	return nil
}
