// Package watchdog is the anomaly watchdog: a small rule engine that
// evaluates declarative rules over the series the daemon's metric
// registries expose — SLO burn rates, shed permille, breaker trips,
// goroutine/RSS growth, feed-mesh quarantines — and fires a trigger
// (typically: capture a diagnostics bundle) when a rule's condition
// holds. A rule names its series exactly as /metrics prints it, so the
// evidence a trigger cites is a number an operator can find in a scrape
// or in the bundle's metrics.prom. The paper's predictor only pays off
// while the serving path stays up; the watchdog is the layer that
// notices it degrading and grabs the evidence while it is still fresh.
//
// Anti-flap discipline is built in, because an automated capture that
// fires on every tick of a noisy signal is worse than none:
//
//   - hold: a rule must breach for N consecutive ticks before firing
//     (a one-tick spike is noise, not an incident);
//   - cooldown: once fired, a rule stays quiet for its cooldown window
//     even if the condition persists — at most one capture per window;
//   - global rate limit: across all rules, at most maxTriggers (4) fire
//     per ratePeriod (1h); the excess is counted and logged, not
//     captured.
//
// Rules are declarative and parseable from flag strings — see ParseRule
// for the syntax — so operators can tune thresholds without a rebuild.
package watchdog

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"unclean/internal/obs"
	"unclean/internal/obs/flight"
)

// Op is a rule's comparison operator.
type Op uint8

// Comparison operators.
const (
	OpGT Op = iota // strictly greater
	OpLT           // strictly less
	OpGE
	OpLE
)

func (o Op) String() string {
	switch o {
	case OpGT:
		return ">"
	case OpLT:
		return "<"
	case OpGE:
		return ">="
	case OpLE:
		return "<="
	}
	return "?"
}

func (o Op) compare(v, threshold float64) bool {
	switch o {
	case OpGT:
		return v > threshold
	case OpLT:
		return v < threshold
	case OpGE:
		return v >= threshold
	case OpLE:
		return v <= threshold
	}
	return false
}

// Rule is one declarative condition over an exposed series.
type Rule struct {
	// Name labels the rule in metrics, logs, flight events, and bundle
	// manifests.
	Name string
	// Signal is the series the rule reads, spelled as the text
	// exposition prints it: `unclean_runtime_goroutines`, or with its
	// labels in exposition order,
	// `unclean_dnsbl_availability_burn_rate{zone="bl.unclean.example",window="5m"}`.
	Signal string
	// Op compares the evaluated value against Threshold.
	Op Op
	// Threshold is the boundary value.
	Threshold float64
	// Window, when > 0, makes the rule a slope rule: the evaluated
	// value is the series' growth over the last Window ticks
	// (current − value Window ticks ago) instead of its instantaneous
	// reading. Monotonic counters become "did it move"; gauges become
	// growth detectors.
	Window int
	// Hold is how many consecutive breaching ticks arm the trigger
	// (default 1 — fire on first breach).
	Hold int
	// Cooldown is the minimum time between fires of this rule
	// (default 5m).
	Cooldown time.Duration
}

// withDefaults applies the documented defaults.
func (r Rule) withDefaults() Rule {
	if r.Hold <= 0 {
		r.Hold = 1
	}
	if r.Cooldown <= 0 {
		r.Cooldown = 5 * time.Minute
	}
	return r
}

// String renders the rule in the ParseRule syntax.
func (r Rule) String() string {
	s := fmt.Sprintf("%s: %s %s %g", r.Name, r.Signal, r.Op, r.Threshold)
	if r.Window > 0 {
		s += fmt.Sprintf(" over=%d", r.Window)
	}
	if r.Hold > 1 {
		s += fmt.Sprintf(" hold=%d", r.Hold)
	}
	if r.Cooldown > 0 {
		s += fmt.Sprintf(" cooldown=%s", r.Cooldown)
	}
	return s
}

// Trigger is one fired rule: everything a capture needs to explain
// itself later.
type Trigger struct {
	// Rule is the firing rule's name.
	Rule string `json:"rule"`
	// Signal is the series the rule watched.
	Signal string `json:"signal"`
	// Value is the evaluated value at fire time (growth for slope
	// rules).
	Value float64 `json:"value"`
	// Threshold and Op restate the breached condition.
	Threshold float64 `json:"threshold"`
	Op        string  `json:"op"`
	// Held is how many consecutive ticks the condition had breached.
	Held int `json:"held"`
	// At is the fire time.
	At time.Time `json:"at"`
	// Evidence is the one-line human rendering
	// ("unclean_runtime_goroutines=812 > 500, held 3 tick(s)").
	Evidence string `json:"evidence"`
}

// The global rate limit: at most maxTriggers fires across all rules per
// ratePeriod.
const (
	maxTriggers = 4
	ratePeriod  = time.Hour
)

// Config tunes the watchdog.
type Config struct {
	// OnTrigger runs for each non-suppressed fire (typically: capture a
	// bundle). It runs synchronously inside Tick; heavy work should
	// hand off.
	OnTrigger func(Trigger)
	// Now injects a clock (tests); nil = time.Now.
	Now func() time.Time
	// Registries expose the series rules read: every tick reads their
	// text exposition, scrape hooks included (obs.Samples).
	Registries []*obs.Registry
	// Registry receives the watchdog's metrics (nil = obs.Default()).
	Registry *obs.Registry
	// Flight receives a wide event per trigger and suppression
	// (nil = flight.Default()).
	Flight *flight.Recorder
}

// ruleState is a rule plus its evaluation state.
type ruleState struct {
	rule     Rule
	history  []float64 // last Window+1 raw readings, oldest first
	streak   int       // consecutive breaching ticks
	lastFire time.Time
	triggers *obs.Counter
}

// Watchdog evaluates rules over the series of its registries. Construct
// with New; Tick and AddRule are safe for concurrent use.
type Watchdog struct {
	cfg Config

	mu    sync.Mutex
	rules []*ruleState
	fires []time.Time // non-suppressed fire times inside ratePeriod

	mTicks      *obs.Counter
	mSuppressed *obs.Counter
	mErrors     *obs.Counter
	gLastUnix   *obs.Gauge

	now    func() time.Time
	events *flight.Recorder
	log    interface {
		Warn(msg string, args ...any)
		Error(msg string, args ...any)
	}
}

// New builds a watchdog with no rules.
func New(cfg Config) *Watchdog {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Flight == nil {
		cfg.Flight = flight.Default()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Watchdog{
		cfg: cfg,
		mTicks: cfg.Registry.Counter("unclean_watchdog_ticks_total",
			"Watchdog evaluation ticks."),
		mSuppressed: cfg.Registry.Counter("unclean_watchdog_suppressed_total",
			"Rule fires dropped by the global rate limit."),
		mErrors: cfg.Registry.Counter("unclean_watchdog_errors_total",
			"Rule evaluations skipped (series not exposed, non-finite value)."),
		gLastUnix: cfg.Registry.Gauge("unclean_watchdog_last_trigger_unix",
			"Unix time of the last non-suppressed trigger."),
		now:    now,
		events: cfg.Flight,
		log:    obs.Logger("watchdog"),
	}
}

// AddRule installs rules in order, each replacing an installed rule of
// the same name (so a -watch flag can override a built-in default). A
// rule's series must be exposed now: a misspelled or retired name is
// refused here rather than never firing, and then no rule is installed.
// The exposition is read once per call, so a daemon installs its whole
// set in one. A series that later disappears (a windowed quantile whose
// window emptied) counts an evaluation error per tick.
func (w *Watchdog) AddRule(rules ...Rule) error {
	samples, err := obs.Samples(w.cfg.Registries...)
	if err != nil {
		return fmt.Errorf("watchdog: %w", err)
	}
	for _, r := range rules {
		if r.Name == "" || r.Signal == "" {
			return fmt.Errorf("watchdog: rule needs a name and a series: %q", r.String())
		}
		if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) {
			return fmt.Errorf("watchdog: rule %s: threshold must be finite", r.Name)
		}
		if r.Window < 0 || r.Hold < 0 || r.Cooldown < 0 {
			return fmt.Errorf("watchdog: rule %s: over/hold/cooldown must be >= 0", r.Name)
		}
		if _, ok := samples[r.Signal]; !ok {
			return fmt.Errorf("watchdog: rule %s: series %s is not exposed", r.Name, r.Signal)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, r := range rules {
		r = r.withDefaults()
		st := &ruleState{
			rule: r,
			triggers: w.cfg.Registry.Counter("unclean_watchdog_triggers_total",
				"Rule triggers (post-hold, pre-rate-limit).", "rule", r.Name),
		}
		if i := slices.IndexFunc(w.rules, func(old *ruleState) bool { return old.rule.Name == r.Name }); i >= 0 {
			w.rules[i] = st
		} else {
			w.rules = append(w.rules, st)
		}
	}
	return nil
}

// Tick evaluates every rule once and returns the non-suppressed
// triggers (already delivered to OnTrigger). Call it on a fixed
// interval — rule Hold and Window counts are measured in ticks.
func (w *Watchdog) Tick() []Trigger {
	// Read outside the lock: the read runs the registries' scrape hooks.
	samples, err := obs.Samples(w.cfg.Registries...)
	if err != nil {
		w.log.Error("reading series", "error", err)
	}
	w.mu.Lock()
	now := w.now()
	type pending struct {
		st   *ruleState
		trig Trigger
	}
	var fired []pending
	for _, st := range w.rules {
		raw, ok := samples[st.rule.Signal]
		if !ok || math.IsNaN(raw) || math.IsInf(raw, 0) {
			w.mErrors.Inc()
			continue
		}
		value, ok := st.evaluate(raw)
		if !ok {
			continue // slope rule still warming its history
		}
		if !st.rule.Op.compare(value, st.rule.Threshold) {
			st.streak = 0
			continue
		}
		st.streak++
		if st.streak < st.rule.Hold {
			continue
		}
		if !st.lastFire.IsZero() && now.Sub(st.lastFire) < st.rule.Cooldown {
			continue // in cooldown: at most one fire per window
		}
		st.triggers.Inc()
		fired = append(fired, pending{st, Trigger{
			Rule:      st.rule.Name,
			Signal:    st.rule.Signal,
			Value:     value,
			Threshold: st.rule.Threshold,
			Op:        st.rule.Op.String(),
			Held:      st.streak,
			At:        now,
			Evidence: fmt.Sprintf("%s=%g %s %g, held %d tick(s)",
				st.rule.Signal, value, st.rule.Op, st.rule.Threshold, st.streak),
		}})
	}

	// Global rate limit: drop the oldest budget entries that have aged
	// out, then admit fires until the budget is spent.
	keep := w.fires[:0]
	for _, t := range w.fires {
		if now.Sub(t) < ratePeriod {
			keep = append(keep, t)
		}
	}
	w.fires = keep
	var out []Trigger
	var suppressed []Trigger
	for _, p := range fired {
		if len(w.fires) >= maxTriggers {
			suppressed = append(suppressed, p.trig)
			continue
		}
		// The per-rule cooldown starts only on an admitted fire, so a
		// suppressed rule retries as soon as the global budget frees.
		p.st.lastFire = now
		w.fires = append(w.fires, now)
		out = append(out, p.trig)
	}
	w.mu.Unlock()

	w.mTicks.Inc()
	for _, trig := range suppressed {
		w.mSuppressed.Inc()
		w.log.Warn("trigger suppressed by global rate limit",
			"rule", trig.Rule, "evidence", trig.Evidence)
		w.events.Record(flight.Event{
			Kind: flight.KindWatchdog, Verdict: "suppressed",
			Name: trig.Rule, Detail: trig.Evidence,
		})
	}
	for _, trig := range out {
		w.gLastUnix.Set(trig.At.Unix())
		w.log.Warn("watchdog trigger", "rule", trig.Rule, "evidence", trig.Evidence)
		w.events.Record(flight.Event{
			Kind: flight.KindWatchdog, Verdict: "trigger", Flags: flight.FlagErr,
			Name: trig.Rule, Detail: trig.Evidence, Value: int64(trig.Value),
		})
		if w.cfg.OnTrigger != nil {
			w.cfg.OnTrigger(trig)
		}
	}
	return out
}

// evaluate computes the rule's value from the raw reading: the reading
// itself, or (for slope rules) the growth over the history window. ok
// is false while a slope rule's history is still shorter than its
// window.
func (st *ruleState) evaluate(raw float64) (float64, bool) {
	if st.rule.Window <= 0 {
		return raw, true
	}
	st.history = append(st.history, raw)
	if len(st.history) > st.rule.Window+1 {
		st.history = st.history[1:]
	}
	if len(st.history) < st.rule.Window+1 {
		return 0, false
	}
	return raw - st.history[0], true
}

// Run ticks the watchdog at interval until ctx is done.
func (w *Watchdog) Run(ctx interface{ Done() <-chan struct{} }, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.Tick()
		}
	}
}
