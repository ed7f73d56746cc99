package watchdog

import (
	"strings"
	"testing"
	"time"

	"unclean/internal/obs"
	"unclean/internal/obs/flight"
)

// harness is a watchdog under a fake clock reading one registry that
// exposes a controllable gauge, sig, plus the trigger log the
// assertions read.
type harness struct {
	wd    *Watchdog
	reg   *obs.Registry
	now   time.Time
	value int64
	fired []Trigger
}

func newHarness(t *testing.T, rules ...Rule) *harness {
	t.Helper()
	h := &harness{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC), reg: obs.NewRegistry()}
	sig := h.reg.Gauge("sig", "The controllable series.")
	h.reg.OnScrape(func() { sig.Set(h.value) })
	h.wd = New(Config{
		Now:        func() time.Time { return h.now },
		Registry:   h.reg,
		Registries: []*obs.Registry{h.reg},
		Flight:     flight.New(64),
		OnTrigger:  func(tr Trigger) { h.fired = append(h.fired, tr) },
	})
	for _, r := range rules {
		if err := h.wd.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// tick advances the fake clock by the nominal tick interval and runs
// one evaluation.
func (h *harness) tick() []Trigger {
	h.now = h.now.Add(10 * time.Second)
	return h.wd.Tick()
}

func TestHoldHysteresisPreventsFlapping(t *testing.T) {
	h := newHarness(t,
		Rule{Name: "r", Signal: "sig", Op: OpGT, Threshold: 1, Hold: 3, Cooldown: time.Minute})

	// Two breaching ticks, then a clean one: the streak resets, no fire.
	h.value = 2
	h.tick()
	h.tick()
	h.value = 0
	h.tick()
	h.value = 2
	h.tick()
	h.tick()
	if len(h.fired) != 0 {
		t.Fatalf("fired %d times on a flapping signal, want 0 (hold=3)", len(h.fired))
	}
	// The third consecutive breach arms it.
	h.tick()
	if len(h.fired) != 1 {
		t.Fatalf("fired %d times after 3 consecutive breaches, want 1", len(h.fired))
	}
	tr := h.fired[0]
	if tr.Rule != "r" || tr.Held != 3 || tr.Value != 2 {
		t.Fatalf("trigger = %+v, want rule=r held=3 value=2", tr)
	}
	if !strings.Contains(tr.Evidence, "sig=2 > 1") {
		t.Fatalf("evidence %q lacks the breached condition", tr.Evidence)
	}
}

func TestCooldownFiresOncePerWindow(t *testing.T) {
	h := newHarness(t,
		Rule{Name: "r", Signal: "sig", Op: OpGT, Threshold: 1, Cooldown: time.Minute})
	h.value = 5
	// 12 ticks × 10s = two minutes of sustained breach.
	for i := 0; i < 12; i++ {
		h.tick()
	}
	if len(h.fired) != 2 {
		t.Fatalf("fired %d times over 2 cooldown windows, want 2", len(h.fired))
	}
	if gap := h.fired[1].At.Sub(h.fired[0].At); gap < time.Minute {
		t.Fatalf("fires %s apart, want >= the 1m cooldown", gap)
	}
}

func TestGlobalRateLimitSuppresses(t *testing.T) {
	// One rule more than the budget of maxTriggers per ratePeriod.
	var rules []Rule
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		rules = append(rules, Rule{Name: name, Signal: "sig", Op: OpGT, Threshold: 1, Cooldown: 24 * time.Hour})
	}
	h := newHarness(t, rules...)
	h.value = 5
	out := h.tick()
	if len(out) != maxTriggers || len(h.fired) != maxTriggers {
		t.Fatalf("admitted %d triggers with a budget of %d", len(out), maxTriggers)
	}
	// The suppressed rule took no cooldown: it retries once budget
	// frees. Advance past the rate period.
	h.now = h.now.Add(ratePeriod + time.Hour)
	out = h.tick()
	if len(out) != 1 || out[0].Rule != "e" {
		t.Fatalf("after budget reset got %v, want the suppressed rule e", out)
	}
}

func TestSlopeRuleMeasuresGrowth(t *testing.T) {
	h := newHarness(t,
		Rule{Name: "grow", Signal: "sig", Op: OpGT, Threshold: 50, Window: 3, Cooldown: time.Minute})
	// Warmup: a slope rule stays silent until it has Window+1 readings,
	// however large the absolute value.
	h.value = 1000
	for i := 0; i < 3; i++ {
		if out := h.tick(); len(out) != 0 {
			t.Fatalf("slope rule fired during warmup tick %d", i+1)
		}
	}
	// Flat signal: growth 0, no fire.
	h.tick()
	if len(h.fired) != 0 {
		t.Fatal("slope rule fired on a flat signal")
	}
	// +60 over the window.
	h.value = 1060
	h.tick()
	if len(h.fired) != 1 {
		t.Fatalf("fired %d times on +60 growth (threshold 50), want 1", len(h.fired))
	}
	if got := h.fired[0].Value; got != 60 {
		t.Fatalf("slope trigger value %g, want the growth 60, not the raw reading", got)
	}
}

func TestUnknownSignalCountsErrorNotPanic(t *testing.T) {
	h := newHarness(t)
	// A series the registries do not expose is refused at install, with
	// the rule and the series named.
	err := h.wd.AddRule(Rule{Name: "ghost", Signal: "no_such_series", Op: OpGT, Threshold: 1})
	if err == nil || !strings.Contains(err.Error(), "ghost") || !strings.Contains(err.Error(), "no_such_series") {
		t.Fatalf("AddRule over an unexposed series: err = %v, want one naming ghost and no_such_series", err)
	}
	// A windowed quantile is exposed only while its window holds
	// observations: once the window empties, each tick counts an
	// evaluation error instead of reading a value.
	lat := h.reg.WindowedHistogram("lat_seconds", "Latency.")
	lat.Clock(func() time.Time { return h.now })
	lat.ObserveAt(h.now, time.Second)
	if err := h.wd.AddRule(Rule{Name: "slow", Signal: `lat_seconds{window="1m",quantile="0.5"}`,
		Op: OpGT, Threshold: 0}); err != nil {
		t.Fatal(err)
	}
	errs := h.reg.Counter("unclean_watchdog_errors_total", "")
	h.now = h.now.Add(2 * time.Minute)
	h.tick()
	if len(h.fired) != 0 || errs.Value() != 1 {
		t.Fatalf("tick over a vanished series: %d fires, %d errors; want 0 and 1", len(h.fired), errs.Value())
	}
}

func TestAddRuleReplacesByName(t *testing.T) {
	h := newHarness(t,
		Rule{Name: "r", Signal: "sig", Op: OpGT, Threshold: 100})
	// Override with a lower threshold, as a -watch flag would.
	if err := h.wd.AddRule(Rule{Name: "r", Signal: "sig", Op: OpGT, Threshold: 1}); err != nil {
		t.Fatal(err)
	}
	h.wd.mu.Lock()
	n := len(h.wd.rules)
	h.wd.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d rules after same-name AddRule, want 1", n)
	}
	h.value = 50
	h.tick()
	if len(h.fired) != 1 {
		t.Fatal("replacement rule did not fire")
	}
}

func TestParseRuleRoundTrip(t *testing.T) {
	cases := []string{
		`shed: unclean_dnsbl_shed_1m_permille{zone="bl.unclean.example"} > 200 hold=3 cooldown=10m0s`,
		"grow: unclean_runtime_goroutines >= 500 over=30 hold=3 cooldown=15m0s",
		"low: sig < 1 cooldown=5m0s",
		"le: sig <= 0.5 cooldown=1h0m0s",
	}
	for _, in := range cases {
		r, err := ParseRule(in)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", in, err)
		}
		if got := r.String(); got != in {
			t.Fatalf("round trip %q -> %q", in, got)
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"",                // no colon
		"noname sig > 1",  // no colon
		": sig > 1",       // empty name
		"r: sig",          // missing op+value
		"r: sig ~ 1",      // bad op
		"r: sig > banana", // bad threshold
		"r: sig > NaN",    // non-finite thresholds AddRule refuses
		"r: sig > Inf",
		"r: sig < -inf",
		"r: sig > 1 over=0",       // zero window
		"r: sig > 1 hold=-2",      // negative hold
		"r: sig > 1 cooldown=xyz", // bad duration
		"r: sig > 1 flavor=mint",  // unknown option
	}
	for _, in := range bad {
		if _, err := ParseRule(in); err == nil {
			t.Errorf("ParseRule(%q) accepted, want error", in)
		}
	}
}
