package feedmesh

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/ipset"
	"unclean/internal/obs"
)

// fakeClock marches deterministically, one step per Tick.
type fakeClock struct{ t time.Time }

func newClock() *fakeClock {
	return &fakeClock{t: time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// fakeFeed is a controllable source: tests flip its fields between
// Ticks (Tick is synchronous, so this is race-free).
type fakeFeed struct {
	name  string
	addrs ipset.Set
	asOf  time.Time
	err   error
}

func (f *fakeFeed) Name() string { return f.name }
func (f *fakeFeed) Load(context.Context) (Batch, error) {
	if f.err != nil {
		return Batch{}, f.err
	}
	return Batch{Addrs: f.addrs, AsOf: f.asOf}, nil
}

// testConfig is the default config on a fake clock.
func testConfig(clk *fakeClock) Config {
	cfg := DefaultConfig()
	cfg.Interval = time.Minute
	cfg.Now = clk.now
	return cfg
}

// tick advances the clock one interval and runs a round, reporting
// whether it swapped the served list.
func tick(t *testing.T, m *Mesh, clk *fakeClock) bool {
	t.Helper()
	clk.advance(time.Minute)
	return m.Tick(context.Background())
}

func feedByName(t *testing.T, st Status, name string) FeedStatus {
	t.Helper()
	for _, f := range st.Feeds {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no feed %q in status", name)
	return FeedStatus{}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig()); err == nil {
		t.Error("no sources accepted")
	}
	a := &fakeFeed{name: "a"}
	if _, err := New(DefaultConfig(), a, &fakeFeed{name: "a"}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := New(DefaultConfig(), &fakeFeed{name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	bad := DefaultConfig()
	bad.Threshold = 1.5
	if _, err := New(bad, a); err == nil {
		t.Error("threshold > 1 accepted")
	}
	bad = DefaultConfig()
	bad.Interval = -time.Minute
	if _, err := New(bad, a); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestMergeNeedsAgreement(t *testing.T) {
	clk := newClock()
	shared := ipset.MustParse("60.0.1.1 60.0.2.1")
	a := &fakeFeed{name: "a", addrs: shared}
	b := &fakeFeed{name: "b", addrs: shared}
	c := &fakeFeed{name: "c", addrs: shared.Union(ipset.MustParse("60.0.9.1"))}
	m, err := New(testConfig(clk), a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if !tick(t, m, clk) {
		t.Fatal("first merge did not swap")
	}
	list := m.List()
	if list == nil {
		t.Fatal("no merged list")
	}
	for _, addr := range []string{"60.0.1.99", "60.0.2.99"} {
		if !list.Blocks(ipset.MustParse(addr).At(0)) {
			t.Errorf("agreed block for %s not listed", addr)
		}
	}
	// c's lone block has vote share 1/3 < 0.34: a single feed cannot
	// list a block on its own.
	if list.Blocks(ipset.MustParse("60.0.9.50").At(0)) {
		t.Error("single-feed block was listed")
	}
	// Steady state must not re-swap.
	if tick(t, m, clk) {
		t.Error("unchanged merge swapped again")
	}
}

func TestDeadFeedQuarantinedAndContributionDecays(t *testing.T) {
	clk := newClock()
	cfg := testConfig(clk)
	cfg.Threshold = 0.2
	// Two feeds: with fewer than three loaded peers content is never
	// scored, so this test isolates the availability dynamics. Among
	// more peers c's wholly-unique content would (correctly) erode its
	// quality on its own.
	a := &fakeFeed{name: "a", addrs: ipset.MustParse("60.0.1.1")}
	c := &fakeFeed{name: "c", addrs: ipset.MustParse("60.0.7.1")}
	m, err := New(cfg, a, c)
	if err != nil {
		t.Fatal(err)
	}
	tick(t, m, clk)
	cBlock := ipset.MustParse("60.0.7.9").At(0)
	if !m.List().Blocks(cBlock) {
		t.Fatal("healthy c's block not listed at threshold 0.2")
	}

	c.err = errors.New("connection refused")
	// First failed round: quality has only sagged, the block must still
	// be served — contributions decay, they do not vanish in one reload.
	tick(t, m, clk)
	if !m.List().Blocks(cBlock) {
		t.Fatal("contribution vanished after a single failed load")
	}
	var quarantinedAt int
	for i := 2; i <= 10; i++ {
		tick(t, m, clk)
		if feedByName(t, m.Status(), "c").State == StateQuarantined {
			quarantinedAt = i
			break
		}
	}
	if quarantinedAt == 0 {
		t.Fatal("dead feed never quarantined")
	}
	if quarantinedAt > 5 {
		t.Fatalf("dead feed quarantined only after %d rounds", quarantinedAt)
	}
	// Decay drives the weight down each round and the block out of the
	// served list.
	w1 := feedByName(t, m.Status(), "c").Weight
	tick(t, m, clk)
	w2 := feedByName(t, m.Status(), "c").Weight
	if w2 >= w1 {
		t.Fatalf("quarantined weight did not decay: %v -> %v", w1, w2)
	}
	for i := 0; i < 10; i++ {
		tick(t, m, clk)
	}
	if m.List().Blocks(cBlock) {
		t.Fatal("dead feed's block still served after full decay")
	}
	st := m.Status()
	if f := feedByName(t, st, "c"); f.LastError == "" {
		t.Error("quarantined feed has no LastError")
	}
}

// A feed that has never loaded has nothing to vote with: it does not
// count toward the healthy feeds in the status, the gauge or the
// degradation gate, and the readiness detail names it.
func TestNeverLoadedFeedNotHealthy(t *testing.T) {
	clk := newClock()
	shared := ipset.MustParse("60.0.1.1 60.0.2.1")
	a := &fakeFeed{name: "a", addrs: shared}
	b := &fakeFeed{name: "b", addrs: shared}
	c := &fakeFeed{name: "c", err: errors.New("no such feed")}
	m, err := New(testConfig(clk), a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		tick(t, m, clk)
		if got := feedByName(t, m.Status(), "c").State; got != StateHealthy {
			t.Fatalf("round %d: c is %v; the case needs it still in the healthy state", round, got)
		}
		samples, err := obs.Samples(m.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		ok, detail := m.HealthCheck()()
		if m.Status().HealthyFeeds != 2 || samples["unclean_feedmesh_healthy_feeds"] != 2 {
			t.Errorf("round %d: healthy feeds status=%d gauge=%v, want 2 each",
				round, m.Status().HealthyFeeds, samples["unclean_feedmesh_healthy_feeds"])
		}
		if !ok || !strings.Contains(detail, "2/3 feeds healthy") || !strings.Contains(detail, "c=never-loaded") {
			t.Errorf("round %d: readiness %v %q, want ready, 2/3 and c named", round, ok, detail)
		}
	}
}

// TestFeedHealthRule pins the one health rule over state × loads: a
// feed counts as healthy only in the healthy state after at least one
// load, and otherwise reads as its state, or as never-loaded when it is
// in the healthy state with no load.
func TestFeedHealthRule(t *testing.T) {
	for _, tc := range []struct {
		state State
		loads uint64
		want  string
	}{
		{StateHealthy, 0, "never-loaded"},
		{StateHealthy, 1, "healthy"},
		{StateHealthy, 40, "healthy"},
		{StateProbation, 0, "probation"},
		{StateProbation, 2, "probation"},
		{StateQuarantined, 0, "quarantined"},
		{StateQuarantined, 7, "quarantined"},
		{State(9), 3, "unknown"},
	} {
		f := FeedStatus{Name: "f", State: tc.state, Loads: tc.loads}
		if got := f.Health(); got != tc.want {
			t.Errorf("%v with %d loads: Health() = %q, want %q", tc.state, tc.loads, got, tc.want)
		}
		if got := countsHealthy(tc.state, tc.loads); got != (tc.want == "healthy") {
			t.Errorf("%v with %d loads: countsHealthy = %v, but Health() reads %q", tc.state, tc.loads, got, tc.want)
		}
	}
}

// Handler serves Status as JSON that decodes back into the same Status,
// labels included.
func TestHandlerServesStatus(t *testing.T) {
	clk := newClock()
	shared := ipset.MustParse("60.0.1.1 60.0.2.1")
	m, err := New(testConfig(clk), &fakeFeed{name: "a", addrs: shared}, &fakeFeed{name: "b", addrs: shared},
		&fakeFeed{name: "c", err: errors.New("no such feed")})
	if err != nil {
		t.Fatal(err)
	}
	tick(t, m, clk)
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/mesh", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var got Status
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("body is not a Status: %v\n%s", err, rec.Body.Bytes())
	}
	if want := m.Status(); !reflect.DeepEqual(got, want) {
		t.Errorf("served status decoded to\n%+v\nwant\n%+v", got, want)
	}
	if h := feedByName(t, got, "c").Health(); h != "never-loaded" {
		t.Errorf("served c reads %q, want never-loaded", h)
	}
}

// panicOnName is a source whose Name panics once its Load has run, so
// the panic lands inside the round's locked section.
type panicOnName struct{ armed atomic.Bool }

func (p *panicOnName) Name() string {
	if p.armed.Load() {
		panic("feedmesh test: Name after Load")
	}
	return "p"
}

func (p *panicOnName) Load(context.Context) (Batch, error) {
	p.armed.Store(true)
	return Batch{Addrs: ipset.MustParse("60.0.1.1")}, nil
}

// A panic while a round is scored must not leave the mesh locked:
// Status (and so the readiness check and a crash bundle's mesh.json)
// still answers.
func TestTickPanicReleasesLock(t *testing.T) {
	src := &panicOnName{}
	m, err := New(testConfig(newClock()), src)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Tick did not panic")
			}
		}()
		m.Tick(context.Background())
	}()
	src.armed.Store(false)
	done := make(chan Status, 1)
	go func() { done <- m.Status() }()
	select {
	case st := <-done:
		if st.Round != 1 {
			t.Errorf("Status().Round = %d, want 1", st.Round)
		}
	case <-time.After(time.Second):
		t.Fatal("Status blocked after a panic inside Tick: the mesh lock was never released")
	}
}

func TestDegradedServesLastGood(t *testing.T) {
	clk := newClock()
	cfg := testConfig(clk)
	feeds := []*fakeFeed{
		{name: "a", addrs: ipset.MustParse("60.0.1.1 60.0.2.1")},
		{name: "b", addrs: ipset.MustParse("60.0.1.1 60.0.2.1")},
		{name: "c", addrs: ipset.MustParse("60.0.1.1 60.0.2.1")},
		{name: "d", addrs: ipset.MustParse("60.0.1.1 60.0.2.1")},
	}
	m, err := New(cfg, feeds[0], feeds[1], feeds[2], feeds[3])
	if err != nil {
		t.Fatal(err)
	}
	tick(t, m, clk)
	want := m.List()
	if want == nil || want.Len() == 0 {
		t.Fatal("no initial merge")
	}

	// Kill three of four feeds: below MinHealthyFrac the mesh must
	// freeze the last-good list and fail its health check, not rebuild
	// from the lone survivor.
	for _, f := range feeds[1:] {
		f.err = errors.New("feed host down")
	}
	degraded := false
	for i := 0; i < 8; i++ {
		tick(t, m, clk)
		if m.Status().Degraded {
			degraded = true
			break
		}
	}
	if !degraded {
		t.Fatal("mesh never degraded with 1/4 feeds healthy")
	}
	if got := m.List(); got != want {
		t.Error("degraded mesh rebuilt the list instead of serving last-good")
	}
	ok, detail := m.HealthCheck()()
	if ok {
		t.Errorf("health check passed while degraded (%s)", detail)
	}

	// Revive the feeds; after probation the mesh must recover.
	for _, f := range feeds[1:] {
		f.err = nil
	}
	recovered := false
	for i := 0; i < 12; i++ {
		tick(t, m, clk)
		if st := m.Status(); !st.Degraded && st.HealthyFeeds == 4 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("mesh never recovered after feeds revived")
	}
	if ok, detail := m.HealthCheck()(); !ok {
		t.Errorf("health check failing after recovery: %s", detail)
	}
}

func TestProbationReadmission(t *testing.T) {
	clk := newClock()
	cfg := testConfig(clk)
	shared := ipset.MustParse("60.0.1.1")
	a := &fakeFeed{name: "a", addrs: shared}
	b := &fakeFeed{name: "b", addrs: shared}
	c := &fakeFeed{name: "c", addrs: shared}
	m, err := New(cfg, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	tick(t, m, clk)

	c.err = errors.New("timeout")
	for i := 0; i < 6; i++ {
		tick(t, m, clk)
	}
	if st := feedByName(t, m.Status(), "c").State; st != StateQuarantined {
		t.Fatalf("c state = %v, want quarantined", st)
	}

	c.err = nil
	sawProbation := false
	readmittedAt := 0
	for i := 1; i <= 12; i++ {
		tick(t, m, clk)
		switch feedByName(t, m.Status(), "c").State {
		case StateProbation:
			sawProbation = true
		case StateHealthy:
			readmittedAt = i
		}
		if readmittedAt != 0 {
			break
		}
	}
	if !sawProbation {
		t.Error("recovered feed skipped probation")
	}
	if readmittedAt == 0 {
		t.Fatal("recovered feed never re-admitted")
	}
	// One clean load is not enough: probation takes ProbationLoads of
	// them (plus the breaker's cooldown before the first probe).
	if readmittedAt < ProbationLoads {
		t.Fatalf("re-admitted after %d rounds, faster than probation allows", readmittedAt)
	}
}

func TestProbationRelapseResets(t *testing.T) {
	clk := newClock()
	cfg := testConfig(clk)
	shared := ipset.MustParse("60.0.1.1")
	a := &fakeFeed{name: "a", addrs: shared}
	b := &fakeFeed{name: "b", addrs: shared}
	c := &fakeFeed{name: "c", addrs: shared}
	m, err := New(cfg, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	tick(t, m, clk)
	c.err = errors.New("down")
	for i := 0; i < 6; i++ {
		tick(t, m, clk)
	}

	// One clean load puts it on probation...
	c.err = nil
	for i := 0; i < 3 && feedByName(t, m.Status(), "c").State != StateProbation; i++ {
		tick(t, m, clk)
	}
	if st := feedByName(t, m.Status(), "c").State; st != StateProbation {
		t.Fatalf("c state = %v, want probation", st)
	}
	// ...but a relapse sends it straight back to quarantine.
	c.err = errors.New("down again")
	tick(t, m, clk)
	if st := feedByName(t, m.Status(), "c").State; st != StateQuarantined {
		t.Fatalf("c state after relapse = %v, want quarantined", st)
	}
}

// assertPoisonersQuarantined runs honest feeds that report four hostile
// /24s beside poisoners that report those plus the same six clean /24s.
// The feeds are the mesh's only evidence. Every poisoner must be
// quarantined within one quality window (+1), no clean /24 may be
// served on the way, and every honest feed stays healthy.
func assertPoisonersQuarantined(t *testing.T, honest, poisoners int) {
	t.Helper()
	clk := newClock()
	hostile := ipset.MustParse("60.0.1.1 60.0.2.1 60.0.3.1 60.0.4.1")
	clean := ipset.MustParse("80.0.1.1 80.0.2.1 80.0.3.1 80.0.4.1 80.0.5.1 80.0.6.1")
	var sources []Source
	for i := 1; i <= honest; i++ {
		sources = append(sources, &fakeFeed{name: fmt.Sprintf("honest%d", i), addrs: hostile})
	}
	for i := 1; i <= poisoners; i++ {
		sources = append(sources, &fakeFeed{name: fmt.Sprintf("poison%d", i), addrs: hostile.Union(clean)})
	}
	m, err := New(testConfig(clk), sources...)
	if err != nil {
		t.Fatal(err)
	}
	quarantinedAt := map[string]int{}
	for round := 1; round <= QualityWindow+1 && len(quarantinedAt) < poisoners; round++ {
		tick(t, m, clk)
		// The poisoned blocks must never reach the served list.
		for _, cb := range clean.Blocks(Bits) {
			if m.List() != nil && m.List().Blocks(cb.Base()) {
				t.Fatalf("round %d: known-clean block %v served", round, cb)
			}
		}
		for _, f := range m.Status().Feeds {
			if _, seen := quarantinedAt[f.Name]; !seen && f.State == StateQuarantined {
				quarantinedAt[f.Name] = round
			}
		}
	}
	st := m.Status()
	for i := 1; i <= poisoners; i++ {
		name := fmt.Sprintf("poison%d", i)
		if _, ok := quarantinedAt[name]; !ok {
			t.Fatalf("%s not quarantined within one quality window (+1); quarantined: %v", name, quarantinedAt)
		}
		// The uncorroborated share is surfaced per feed.
		if f := feedByName(t, st, name); f.FPRate <= 0 {
			t.Errorf("%s shows no false positives", name)
		}
	}
	for i := 1; i <= honest; i++ {
		if f := feedByName(t, st, fmt.Sprintf("honest%d", i)); f.State != StateHealthy {
			t.Errorf("honest feed %s state = %v, want healthy", f.Name, f.State)
		}
	}
}

func TestPoisonedFeedQuarantined(t *testing.T) { assertPoisonersQuarantined(t, 2, 1) }

// Two poisoners that report the same clean /24s must not corroborate
// each other: a block counts only when a Threshold share of the loaded
// feeds reported it, and two of six is under that share.
func TestColludingPoisonersQuarantined(t *testing.T) { assertPoisonersQuarantined(t, 4, 2) }

// Honest feeds need not agree wholesale: a block that two of four feeds
// report is served (share 0.5), so it corroborates both of them. Here
// each /24 appears in exactly two feeds, and all four stay healthy.
func TestPairwiseOverlapCorroborates(t *testing.T) {
	clk := newClock()
	// 60.0.N.0/24 for N = 1..6 is one block per pair of feeds: ab, ac,
	// ad, bc, bd, cd.
	m, err := New(testConfig(clk),
		&fakeFeed{name: "a", addrs: ipset.MustParse("60.0.1.1 60.0.2.1 60.0.3.1")},
		&fakeFeed{name: "b", addrs: ipset.MustParse("60.0.1.1 60.0.4.1 60.0.5.1")},
		&fakeFeed{name: "c", addrs: ipset.MustParse("60.0.2.1 60.0.4.1 60.0.6.1")},
		&fakeFeed{name: "d", addrs: ipset.MustParse("60.0.3.1 60.0.5.1 60.0.6.1")},
	)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2*QualityWindow; round++ {
		tick(t, m, clk)
		st := m.Status()
		for _, f := range st.Feeds {
			if f.State != StateHealthy || f.FPRate != 0 {
				t.Fatalf("round %d: feed %s state %v, uncorroborated share %.2f; want healthy at 0",
					round, f.Name, f.State, f.FPRate)
			}
		}
		if st.Degraded || st.MergedBlocks != 6 {
			t.Fatalf("round %d: degraded=%v, %d blocks served, want 6", round, st.Degraded, st.MergedBlocks)
		}
	}
}

// A feed the others do not corroborate stays quarantined among three
// feeds. Its own vote counts toward the quorum, so it counts among the
// three voters the quorum needs too, and it is scored on every round it
// loads in quarantine rather than passing as clean into probation. Here
// a and b list the same /24s and p lists others.
func TestUncorroboratedFeedStaysQuarantined(t *testing.T) {
	clk := newClock()
	m, err := New(testConfig(clk),
		&fakeFeed{name: "a", addrs: ipset.MustParse("60.0.1.1 60.0.2.1 60.0.3.1")},
		&fakeFeed{name: "b", addrs: ipset.MustParse("60.0.1.1 60.0.2.1 60.0.3.1")},
		&fakeFeed{name: "p", addrs: ipset.MustParse("70.0.1.1 70.0.2.1 70.0.3.1")},
	)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := false
	for round := 1; round <= QualityWindow+1 && !quarantined; round++ {
		tick(t, m, clk)
		quarantined = feedByName(t, m.Status(), "p").State == StateQuarantined
	}
	if !quarantined {
		t.Fatal("p not quarantined within one quality window (+1)")
	}
	for round := 1; round <= 4*QualityWindow; round++ {
		tick(t, m, clk)
		if f := feedByName(t, m.Status(), "p"); f.State != StateQuarantined {
			t.Fatalf("round %d after the quarantine: p is %v, want quarantined", round, f.State)
		}
	}
}

func TestOnSwapFiresOnlyOnChange(t *testing.T) {
	clk := newClock()
	a := &fakeFeed{name: "a", addrs: ipset.MustParse("60.0.1.1")}
	b := &fakeFeed{name: "b", addrs: ipset.MustParse("60.0.1.1")}
	m, err := New(testConfig(clk), a, b)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	m.OnSwap(func(list *blocklist.Trie) {
		if list == nil {
			t.Error("OnSwap handed a nil list")
		}
		count++
	})
	for i := 0; i < 3; i++ {
		tick(t, m, clk)
	}
	if count != 1 {
		t.Fatalf("OnSwap fired %d times for one distinct list", count)
	}
	a.addrs = ipset.MustParse("60.0.1.1 60.0.5.1")
	b.addrs = a.addrs
	tick(t, m, clk)
	if count != 2 {
		t.Fatalf("OnSwap fired %d times after a list change, want 2", count)
	}
}

func TestContributorsAttributesMergedBlocks(t *testing.T) {
	clk := newClock()
	shared := ipset.MustParse("60.0.1.1 60.0.2.1")
	a := &fakeFeed{name: "a", addrs: shared}
	b := &fakeFeed{name: "b", addrs: shared.Union(ipset.MustParse("60.0.5.1"))}
	c := &fakeFeed{name: "c", addrs: shared}
	m, err := New(testConfig(clk), a, b, c)
	if err != nil {
		t.Fatal(err)
	}

	// Before any merge: nothing to attribute.
	if got := m.Contributors(ipset.MustParse("60.0.1.77").At(0)); got != nil {
		t.Fatalf("Contributors before first merge = %v, want nil", got)
	}

	tick(t, m, clk)

	// An agreed block names every voting feed, sorted, for any address
	// inside it — not just the base.
	got := m.Contributors(ipset.MustParse("60.0.1.200").At(0))
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("Contributors(60.0.1.200) = %v, want [a b c]", got)
	}
	// b's lone block fell under the threshold: unlisted means nil.
	if got := m.Contributors(ipset.MustParse("60.0.5.9").At(0)); got != nil {
		t.Fatalf("Contributors of unlisted block = %v, want nil", got)
	}
	// The returned slice is a copy: mutating it must not poison the map.
	first := m.Contributors(ipset.MustParse("60.0.2.3").At(0))
	first[0] = "mutated"
	if again := m.Contributors(ipset.MustParse("60.0.2.3").At(0)); again[0] != "a" {
		t.Fatalf("Contributors shares internal state: %v", again)
	}
}
