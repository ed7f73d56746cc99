package simnet

import (
	"sync"
	"testing"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

// The shared test world: built once, used read-only by all tests.
var (
	worldOnce sync.Once
	testWorld *World
	worldErr  error
)

func getWorld(t testing.TB) *World {
	t.Helper()
	worldOnce.Do(func() {
		cfg := DefaultConfig(0.002)
		cfg.Seed = 20061001
		testWorld, worldErr = NewWorld(cfg)
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return testWorld
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Scale = 1.5 },
		func(c *Config) { c.End = c.Start.Add(-time.Hour) },
		func(c *Config) { c.BotTestDate = c.Start.AddDate(-1, 0, 0) },
		func(c *Config) { c.BotTestSize = 0 },
		func(c *Config) { c.InfectionRate = 0 },
		func(c *Config) { c.MonitoredFrac = 1.2 },
		func(c *Config) { c.DailyActiveProb = -0.1 },
		func(c *Config) { c.PhishSiteRate = -1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig(0.002)
		mutate(&cfg)
		if _, err := NewWorld(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestWorldDeterministic(t *testing.T) {
	cfg := DefaultConfig(0.002)
	cfg.Seed = 99
	a, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.EpisodeCount() != b.EpisodeCount() {
		t.Fatalf("episode counts differ: %d vs %d", a.EpisodeCount(), b.EpisodeCount())
	}
	if !a.BotTest().Equal(b.BotTest()) {
		t.Fatal("bot-test reports differ across identical builds")
	}
	if a.PhishFeed().Len() != b.PhishFeed().Len() {
		t.Fatal("phish feeds differ across identical builds")
	}
}

func TestDayArithmetic(t *testing.T) {
	w := getWorld(t)
	if w.DayIndex(w.Cfg.Start) != 0 {
		t.Error("Start should be day 0")
	}
	if got := w.DayIndex(w.Cfg.End); got != w.Days()-1 {
		t.Errorf("End is day %d, want %d", got, w.Days()-1)
	}
	if !w.Date(0).Equal(w.Cfg.Start) {
		t.Error("Date(0) != Start")
	}
	// 2006-04-01 .. 2006-10-14 inclusive is 197 days.
	if w.Days() != 197 {
		t.Errorf("Days = %d, want 197", w.Days())
	}
}

// TestDayIndexBeforeStart holds DayIndex to floor division: a time in
// the day before the horizon is day -1, not day 0, so the per-day
// ground truth before the horizon is empty.
func TestDayIndexBeforeStart(t *testing.T) {
	w := getWorld(t)
	start := w.Cfg.Start
	for _, c := range []struct {
		t    time.Time
		want int
	}{
		{start.Add(-49 * time.Hour), -3},
		{start.Add(-48 * time.Hour), -2},
		{start.Add(-24*time.Hour - time.Nanosecond), -2},
		{start.Add(-24 * time.Hour), -1},
		{start.Add(-time.Hour), -1},
		{start.Add(-time.Nanosecond), -1},
		{start, 0},
		{start.Add(24*time.Hour - time.Nanosecond), 0},
		{start.Add(24 * time.Hour), 1},
		{start.Add(36 * time.Hour), 1},
	} {
		if got := w.DayIndex(c.t); got != c.want {
			t.Errorf("DayIndex(Start%+v) = %d, want %d", c.t.Sub(start), got, c.want)
		}
	}
	if w.ScannersOn(start).Len() == 0 || w.SpammersOn(start).Len() == 0 {
		t.Fatal("day 0 has no scanners or no spammers; the check below would prove nothing")
	}
	before := start.Add(-time.Hour)
	if n := w.ScannersOn(before).Len(); n != 0 {
		t.Errorf("ScannersOn(Start-1h) = %d hosts, want none", n)
	}
	if n := w.SpammersOn(before).Len(); n != 0 {
		t.Errorf("SpammersOn(Start-1h) = %d hosts, want none", n)
	}
	if got := w.DailyScanners(before, start); len(got) != 1 {
		t.Errorf("DailyScanners(Start-1h, Start) = %d days, want 1", len(got))
	}
}

func TestEpidemicShape(t *testing.T) {
	w := getWorld(t)
	if w.EpisodeCount() < 1000 {
		t.Fatalf("only %d episodes; world too quiet for analyses", w.EpisodeCount())
	}
	// Episodes must lie within the horizon and within their network's
	// host range.
	for i := range w.episodes {
		ep := &w.episodes[i]
		if ep.startDay < 0 || int(ep.endDay) >= w.Days() || ep.endDay < ep.startDay {
			t.Fatalf("episode %d has invalid span [%d,%d]", i, ep.startDay, ep.endDay)
		}
		n := w.Model.NetworkAt(int(ep.netIdx))
		if int(ep.hostIdx) >= n.Hosts {
			t.Fatalf("episode %d host index %d out of range %d", i, ep.hostIdx, n.Hosts)
		}
	}
}

func TestEpidemicFollowsUncleanliness(t *testing.T) {
	// Compromises must concentrate in unclean networks: mean uncleanliness
	// of compromised networks well above the model average.
	w := getWorld(t)
	var compromised, overall float64
	for i := range w.episodes {
		compromised += w.Model.NetworkAt(int(w.episodes[i].netIdx)).Unclean
	}
	compromised /= float64(len(w.episodes))
	for i := 0; i < w.Model.NetworkCount(); i++ {
		overall += w.Model.NetworkAt(i).Unclean
	}
	overall /= float64(w.Model.NetworkCount())
	if compromised < overall*1.5 {
		t.Errorf("compromised-network mean uncleanliness %.3f not well above population mean %.3f",
			compromised, overall)
	}
}

func TestInfectionDurationPersists(t *testing.T) {
	// Mean episode duration must be weeks, not days (temporal
	// uncleanliness requires multi-week persistence).
	w := getWorld(t)
	total := 0.0
	for i := range w.episodes {
		total += float64(w.episodes[i].endDay - w.episodes[i].startDay + 1)
	}
	mean := total / float64(len(w.episodes))
	if mean < 7 || mean > 60 {
		t.Errorf("mean infection duration %.1f days; want weeks-scale", mean)
	}
}

func TestBotsActiveWindows(t *testing.T) {
	w := getWorld(t)
	oct := w.BotsActive(date(2006, 10, 1), date(2006, 10, 14))
	if oct.Len() < 200 {
		t.Fatalf("October bot population %d too small", oct.Len())
	}
	monitored := w.MonitoredBotsActive(date(2006, 10, 1), date(2006, 10, 14))
	if monitored.Len() >= oct.Len() {
		t.Errorf("monitored bots (%d) should be a strict subset of all bots (%d)",
			monitored.Len(), oct.Len())
	}
	if !monitored.Difference(oct).IsEmpty() {
		t.Error("monitored bots not a subset of all bots")
	}
	frac := float64(monitored.Len()) / float64(oct.Len())
	if frac < 0.5 || frac > 0.9 {
		t.Errorf("monitored fraction %.2f far from configured 0.70", frac)
	}
	// Empty/out-of-range windows.
	if got := w.BotsActive(date(2007, 1, 1), date(2007, 1, 2)); !got.IsEmpty() {
		t.Error("window after horizon should be empty")
	}
}

func TestScannersSubsetOfBots(t *testing.T) {
	w := getWorld(t)
	day := date(2006, 10, 3)
	scanners := w.ScannersOn(day)
	spammers := w.SpammersOn(day)
	bots := w.BotsActive(day, day)
	if scanners.IsEmpty() || spammers.IsEmpty() {
		t.Fatal("no activity on a mid-horizon day")
	}
	if !scanners.Difference(bots).IsEmpty() {
		t.Error("scanners not a subset of active bots")
	}
	if !spammers.Difference(bots).IsEmpty() {
		t.Error("spammers not a subset of active bots")
	}
	if w.ScannersOn(date(2007, 5, 1)).Len() != 0 {
		t.Error("scanning outside horizon")
	}
}

func TestDailyScannersSeries(t *testing.T) {
	w := getWorld(t)
	series := w.DailyScanners(date(2006, 5, 1), date(2006, 5, 14))
	if len(series) != 14 {
		t.Fatalf("series length %d, want 14", len(series))
	}
	nonEmpty := 0
	for _, s := range series {
		if !s.IsEmpty() {
			nonEmpty++
		}
	}
	if nonEmpty < 10 {
		t.Errorf("only %d/14 days have scanners", nonEmpty)
	}
}

func TestBotTestShape(t *testing.T) {
	w := getWorld(t)
	bt := w.BotTest()
	if bt.Len() != w.Cfg.BotTestSize {
		t.Fatalf("bot-test size %d, want %d", bt.Len(), w.Cfg.BotTestSize)
	}
	// Roughly one bot per /24 (paper: 186 addrs in 173 blocks).
	blocks := bt.BlockCount(24)
	if blocks < bt.Len()*8/10 {
		t.Errorf("bot-test spans %d /24s for %d addrs; too concentrated", blocks, bt.Len())
	}
	// All bot-test members are monitored bots on the snapshot date.
	active := w.MonitoredBotsActive(w.Cfg.BotTestDate, w.Cfg.BotTestDate)
	if !bt.Difference(active).IsEmpty() {
		t.Error("bot-test includes hosts not active+monitored on BotTestDate")
	}
	// Regional skew: a majority of bot-test falls in RIPE space.
	inRIPE := 0
	bt.Each(func(a netaddr.Addr) bool {
		if netaddr.RegistryOf(a) == netaddr.RIPE {
			inRIPE++
		}
		return true
	})
	// At tiny scales the regional pool may be smaller than the 70%
	// quota, so require concentration well above the RIPE share of
	// populated /8s (~15%) rather than the paper's exact 70%.
	if frac := float64(inRIPE) / float64(bt.Len()); frac < 0.35 {
		t.Errorf("RIPE fraction %.2f; want demographic concentration > 0.35", frac)
	}
}

func TestPhishFeedShape(t *testing.T) {
	w := getWorld(t)
	feed := w.PhishFeed()
	if feed.Len() < 20 {
		t.Fatalf("phish feed too small: %d", feed.Len())
	}
	// Phishing must live overwhelmingly in hosting space, not
	// residential.
	hosting := 0
	for _, inc := range feed.Incidents() {
		n, ok := w.Model.FindNetwork(inc.Addr)
		if !ok {
			t.Fatalf("phish site %v not in a modeled network", inc.Addr)
		}
		if n.Profile == 3 || n.Profile == 1 { // Datacenter or Business
			hosting++
		}
	}
	if frac := float64(hosting) / float64(feed.Len()); frac < 0.99 {
		t.Errorf("phish hosting fraction %.2f; phishing leaked into non-hosting space", frac)
	}
}

func TestControlSample(t *testing.T) {
	w := getWorld(t)
	rng := stats.NewRNG(5)
	c, err := w.ControlSample(20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 20000 {
		t.Fatalf("control size = %d", c.Len())
	}
	if _, err := w.ControlSample(w.Model.TotalHosts(), rng); err == nil {
		t.Error("oversized control sample accepted")
	}
}

func TestScaledSize(t *testing.T) {
	w := getWorld(t)
	if got := w.ScaledSize(1000000); got != int(1e6*w.Cfg.Scale) {
		t.Errorf("ScaledSize = %d", got)
	}
	if w.ScaledSize(1) != 1 {
		t.Error("ScaledSize floor broken")
	}
}
