// Package simnet simulates the measurement world the paper's datasets came
// from: a synthetic Internet of networks with persistent uncleanliness, an
// epidemic of bot compromises driven by it, phishing-site hosting on the
// independent web-hosting dimension, and NetFlow-level traffic synthesis
// for the windows the analyses observe (DESIGN.md §2).
//
// The generative assumptions are exactly the paper's hypotheses — the
// probability of compromise is a property of the network's defenders, and
// compromises persist for weeks — so the reproduction tests whether the
// paper's *analyses* recover those properties from the same kind of noisy,
// detector-mediated observations the authors had.
package simnet

import (
	"fmt"
	"sort"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netmodel"
	"unclean/internal/obs"
	"unclean/internal/phishfeed"
	"unclean/internal/stats"
)

// Config parameterizes a world. Use DefaultConfig and adjust; the zero
// value is invalid.
type Config struct {
	// Scale is the fraction of the paper's data scale to simulate. At 1.0
	// report cardinalities approximate Table 1 (bot 622k, control 47M);
	// the harness defaults to 1/64 for the CLI and smaller for tests.
	Scale float64
	// Seed makes the world reproducible.
	Seed uint64
	// Start and End bound the simulated horizon (inclusive dates).
	Start, End time.Time
	// BotTestDate is the snapshot date of the small bot-test botnet.
	BotTestDate time.Time
	// BotTestSize is the target cardinality of the bot-test report
	// (the paper's was 186 addresses in 173 /24s).
	BotTestSize int

	// Model configures the synthetic Internet. If Model.TargetNetworks is
	// zero it is derived from Scale.
	Model netmodel.Config

	// InfectionRate is the expected number of new compromises per
	// host-day in a maximally unclean (u=1) network; effective rate is
	// InfectionRate * u^2.
	InfectionRate float64
	// BaseCureDays is the minimum infection lifetime; MeanCureDays and
	// UncleanPersistDays shape the exponential tail: mean duration is
	// BaseCureDays + MeanCureDays + UncleanPersistDays*u. Unclean
	// networks harbor bots for weeks (temporal uncleanliness).
	BaseCureDays, MeanCureDays, UncleanPersistDays float64
	// MonitoredFrac is the fraction of botnets whose C&C the third-party
	// IRC monitoring covers; unmonitored bots never appear in provided
	// bot reports (they are the seed of the paper's "unknown" traffic).
	MonitoredFrac float64
	// ScannerFrac / SpammerFrac / DDoSFrac are the probabilities a bot
	// is tasked with scanning / spamming / DDoS duty (independent; a bot
	// can carry several).
	ScannerFrac, SpammerFrac, DDoSFrac float64
	// SlowScannerFrac is the fraction of scanners probing below the
	// hourly detector's horizon (the §6.2 blind spot).
	SlowScannerFrac float64
	// DailyActiveProb is the per-day probability an assigned activity
	// actually runs (bots have gaps; Figure 1's series is not flat).
	DailyActiveProb float64

	// PhishSiteRate is the expected phishing sites per datacenter
	// network over the horizon at PhishUnclean=1 (effective rate is
	// PhishSiteRate * p^2).
	PhishSiteRate float64
}

// DefaultConfig returns the calibrated configuration at the given scale.
func DefaultConfig(scale float64) Config {
	model := netmodel.DefaultConfig()
	model.TargetNetworks = 0   // derived from Scale in NewWorld
	model.Slash16PerSlash8 = 0 // derived from Scale in NewWorld
	return Config{
		Scale:              scale,
		Seed:               1,
		Start:              date(2006, 4, 1),
		End:                date(2006, 10, 14),
		BotTestDate:        date(2006, 5, 10),
		BotTestSize:        186,
		Model:              model,
		InfectionRate:      0.0035,
		BaseCureDays:       3,
		MeanCureDays:       8,
		UncleanPersistDays: 45,
		MonitoredFrac:      0.70,
		ScannerFrac:        0.55,
		SpammerFrac:        0.65,
		DDoSFrac:           0.30,
		SlowScannerFrac:    0.20,
		DailyActiveProb:    0.70,
		PhishSiteRate:      5.0,
	}
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func (c *Config) validate() error {
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("simnet: Scale must be in (0,1], got %v", c.Scale)
	}
	if !c.Start.Before(c.End) {
		return fmt.Errorf("simnet: Start must precede End")
	}
	if c.BotTestDate.Before(c.Start) || c.BotTestDate.After(c.End) {
		return fmt.Errorf("simnet: BotTestDate outside horizon")
	}
	if c.BotTestSize <= 0 {
		return fmt.Errorf("simnet: BotTestSize must be positive")
	}
	if c.InfectionRate <= 0 || c.MonitoredFrac < 0 || c.MonitoredFrac > 1 {
		return fmt.Errorf("simnet: invalid epidemic parameters")
	}
	for _, p := range []float64{c.ScannerFrac, c.SpammerFrac, c.DDoSFrac, c.SlowScannerFrac, c.DailyActiveProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("simnet: probability parameter out of [0,1]")
		}
	}
	if c.PhishSiteRate < 0 {
		return fmt.Errorf("simnet: PhishSiteRate must be non-negative")
	}
	return nil
}

// episode is one host compromise: [startDay, endDay] inclusive, with the
// roles the bot was tasked with.
type episode struct {
	netIdx   int32
	hostIdx  uint8
	startDay int16
	endDay   int16
	flags    uint8
}

const (
	epMonitored = 1 << iota // C&C channel covered by IRC monitoring
	epScanner
	epSpammer
	epSlow // scanner probes below the hourly-detector horizon
)

// World is a fully generated measurement world.
type World struct {
	Cfg   Config
	Model *netmodel.Model

	days     int // horizon length in days
	episodes []episode
	// episodesByDay[d] holds indices of episodes active on day d.
	episodesByDay [][]int32
	phish         *phishfeed.Feed
	botTest       ipset.Set
	botTestBlocks ipset.Set // /24 bases of bot-test (convenience)
	campaigns     []Campaign
}

// NewWorld generates a world from cfg. Generation is deterministic in
// (cfg, cfg.Seed).
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Model.TargetNetworks == 0 {
		// ~8M routed /24s at full scale; floor keeps tiny test worlds
		// statistically workable.
		n := int(8e6 * cfg.Scale)
		if n < 2000 {
			n = 2000
		}
		cfg.Model.TargetNetworks = n
		if cfg.Model.Slash16PerSlash8 == 0 {
			// The /16 universe scales with the report sizes (~40k active
			// /16s at full scale over ~150 populated /8s). Keeping
			// bots-per-/16 scale-invariant preserves the paper's
			// short-prefix crossover: random control subsets win at /16
			// only when the unclean reports nearly saturate /16 space.
			s16 := 266 * cfg.Scale
			if s16 < 1 {
				s16 = 1
			}
			cfg.Model.Slash16PerSlash8 = s16
		}
	}
	// Each stage is a span on the process-wide trace, so the stage table
	// a command prints shows where the build's time went.
	root := stats.NewRNG(cfg.Seed)
	sp := obs.StartSpan("world/model")
	model, err := netmodel.New(cfg.Model, root.Fork(1))
	sp.End()
	if err != nil {
		return nil, err
	}
	w := &World{
		Cfg:   cfg,
		Model: model,
		days:  int(cfg.End.Sub(cfg.Start)/(24*time.Hour)) + 1,
	}
	for _, stage := range []struct {
		name string
		run  func()
	}{
		{"world/epidemic", func() { w.generateEpidemic(root.Fork(2)) }},
		{"world/episode-index", w.indexEpisodes},
		{"world/phish", func() { w.generatePhish(root.Fork(3)) }},
		{"world/bot-test", func() { w.selectBotTest(root.Fork(4)) }},
		{"world/campaigns", func() { w.generateCampaigns(root.Fork(5)) }},
	} {
		sp := obs.StartSpan(stage.name)
		stage.run()
		sp.End()
	}
	return w, nil
}

// DayIndex converts a time to a day offset from the horizon start;
// times before the horizon map to negative values. The division floors,
// so the 24 hours before Start are day -1.
func (w *World) DayIndex(t time.Time) int {
	const day = 24 * time.Hour
	since := t.Sub(w.Cfg.Start)
	d := since / day
	if since%day < 0 {
		d--
	}
	return int(d)
}

// Days returns the horizon length in days.
func (w *World) Days() int { return w.days }

// Date returns the date of day index d.
func (w *World) Date(d int) time.Time {
	return w.Cfg.Start.Add(time.Duration(d) * 24 * time.Hour)
}

func (w *World) generateEpidemic(rng *stats.RNG) {
	cfg := &w.Cfg
	for i := 0; i < w.Model.NetworkCount(); i++ {
		n := w.Model.NetworkAt(i)
		lambda := float64(n.Hosts) * cfg.InfectionRate * n.Unclean * n.Unclean * float64(w.days)
		count := rng.Poisson(lambda)
		for e := 0; e < count; e++ {
			start := rng.Intn(w.days)
			dur := cfg.BaseCureDays + rng.ExpFloat64()*(cfg.MeanCureDays+cfg.UncleanPersistDays*n.Unclean)
			end := start + int(dur)
			if end >= w.days {
				end = w.days - 1
			}
			var flags uint8
			if rng.Bool(cfg.MonitoredFrac) {
				flags |= epMonitored
			}
			if rng.Bool(cfg.ScannerFrac) {
				flags |= epScanner
				if rng.Bool(cfg.SlowScannerFrac) {
					flags |= epSlow
				}
			}
			if rng.Bool(cfg.SpammerFrac) {
				flags |= epSpammer
			}
			if rng.Bool(cfg.DDoSFrac) {
				flags |= epDDoS
			}
			w.episodes = append(w.episodes, episode{
				netIdx:   int32(i),
				hostIdx:  uint8(rng.Intn(n.Hosts)),
				startDay: int16(start),
				endDay:   int16(end),
				flags:    flags,
			})
		}
	}
}

// indexEpisodes builds episodesByDay as views into one slice, each day's
// episode indices in ascending order.
func (w *World) indexEpisodes() {
	// pos starts as a difference array of the days each episode covers;
	// one scan turns it into each day's start, and filling advances each
	// day's position to the day's end.
	pos := make([]int, w.days+1)
	for _, ep := range w.episodes {
		pos[ep.startDay]++
		pos[ep.endDay+1]--
	}
	ongoing, total := 0, 0
	for d := range w.days {
		ongoing += pos[d]
		pos[d] = total
		total += ongoing
	}
	all := make([]int32, total)
	for idx, ep := range w.episodes {
		for d := ep.startDay; d <= ep.endDay; d++ {
			all[pos[d]] = int32(idx)
			pos[d]++
		}
	}
	w.episodesByDay = make([][]int32, w.days)
	lo := 0
	for d := range w.episodesByDay {
		w.episodesByDay[d] = all[lo:pos[d]:pos[d]]
		lo = pos[d]
	}
}

// addrOf returns the host address of an episode.
func (w *World) addrOf(ep *episode) netaddr.Addr {
	return w.Model.NetworkAt(int(ep.netIdx)).Host(int(ep.hostIdx))
}

// activeOn reports whether an episode's activity of the given kind fires
// on day d: the episode covers d and the deterministic per-day coin lands
// under DailyActiveProb.
func (w *World) activeOn(epIdx int32, ep *episode, d int, kind uint64) bool {
	if d < int(ep.startDay) || d > int(ep.endDay) {
		return false
	}
	h := stats.NewRNG(w.Cfg.Seed ^ 0x5eed ^ uint64(epIdx)<<24 ^ uint64(d)<<8 ^ kind)
	return h.Bool(w.Cfg.DailyActiveProb)
}

// EpisodeCount returns the number of compromise episodes generated.
func (w *World) EpisodeCount() int { return len(w.episodes) }

// generatePhish creates the phishing incident feed. Sites live on
// networks with web hosting (datacenters, occasionally business space)
// and recur on networks with persistently high PhishUnclean — the
// independent dimension of uncleanliness.
func (w *World) generatePhish(rng *stats.RNG) {
	w.phish = &phishfeed.Feed{}
	targets := []string{"bigbank", "e-pay", "netauction", "webmail", "creditunion"}
	for i := 0; i < w.Model.NetworkCount(); i++ {
		n := w.Model.NetworkAt(i)
		var hostingBoost float64
		switch n.Profile {
		case netmodel.Datacenter:
			hostingBoost = 1.0
		case netmodel.Business:
			hostingBoost = 0.15
		default:
			continue // no public web servers to take over
		}
		lambda := w.Cfg.PhishSiteRate * n.PhishUnclean * n.PhishUnclean * hostingBoost
		count := rng.Poisson(lambda)
		for s := 0; s < count; s++ {
			host := n.Host(rng.Intn(n.Hosts))
			day := rng.Intn(w.days)
			w.phish.Add(phishfeed.Incident{
				Reported: w.Date(day),
				URL:      phishfeed.LureURL(targets[rng.Intn(len(targets))], host, rng.Uint32()),
				Addr:     host,
			})
		}
	}
}

// PhishFeed returns the full phishing incident feed.
func (w *World) PhishFeed() *phishfeed.Feed { return w.phish }

// selectBotTest picks the small, old, geographically concentrated botnet
// used as the prediction seed. Bots are drawn from monitored episodes
// active on BotTestDate, heavily preferring one registry region (the
// paper's bot-test was 70% Turkish address space) and the most unclean
// networks, approximately one bot per /24 (paper: 186 addresses in 173
// /24s).
func (w *World) selectBotTest(rng *stats.RNG) {
	day := w.DayIndex(w.Cfg.BotTestDate)
	type cand struct {
		epIdx int32
		score float64
	}
	var regional, other []cand
	for _, epIdx := range w.episodesByDay[day] {
		ep := &w.episodes[epIdx]
		if ep.flags&epMonitored == 0 {
			continue
		}
		n := w.Model.NetworkAt(int(ep.netIdx))
		c := cand{epIdx: epIdx, score: n.Unclean * rng.Float64()}
		// Regional skew: the RIPE /8s stand in for the paper's
		// Turkey-heavy demographics (70% of bot-test).
		if netaddr.RegistryOf(n.Base) == netaddr.RIPE {
			regional = append(regional, c)
		} else {
			other = append(other, c)
		}
	}
	byScore := func(cs []cand) {
		sort.Slice(cs, func(i, j int) bool { return cs[i].score > cs[j].score })
	}
	byScore(regional)
	byScore(other)
	b := ipset.NewBuilder(w.Cfg.BotTestSize)
	blocks := ipset.NewBuilder(w.Cfg.BotTestSize)
	used := make(map[netaddr.Addr]int)
	total := 0
	take := func(cands []cand, quota, maxPerBlock int) {
		for _, c := range cands {
			if total >= quota {
				return
			}
			ep := &w.episodes[c.epIdx]
			a := w.addrOf(ep)
			base := a.Mask(24)
			if used[base] >= maxPerBlock {
				continue
			}
			used[base]++
			b.Add(a)
			blocks.Add(base)
			total++
		}
	}
	// 70% quota from the regional pool, remainder from anywhere; a
	// second pass relaxes the one-bot-per-/24 rule (the paper's report
	// had 186 addresses over 173 blocks).
	take(regional, w.Cfg.BotTestSize*7/10, 1)
	take(other, w.Cfg.BotTestSize, 1)
	take(regional, w.Cfg.BotTestSize, 1)
	take(regional, w.Cfg.BotTestSize, 2)
	take(other, w.Cfg.BotTestSize, 2)
	w.botTest = b.Build()
	w.botTestBlocks = blocks.Build()
}

// BotTest returns the bot-test membership.
func (w *World) BotTest() ipset.Set { return w.botTest }
