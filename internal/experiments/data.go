package experiments

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/ipset"
	"unclean/internal/netflow"
	"unclean/internal/obs"
	"unclean/internal/report"
	"unclean/internal/scandetect"
	"unclean/internal/simnet"
	"unclean/internal/spamdetect"
	"unclean/internal/stats"
)

// Dataset is everything the experiments consume: the world, the Table 1
// report inventory (provided reports from ground truth + observed reports
// from detectors over synthesized traffic), and the October flow log.
type Dataset struct {
	Cfg   Config
	World *simnet.World

	// Inventory holds the Table 1 reports keyed by the paper's tags:
	// bot, phish, scan, spam, bot-test, control.
	Inventory *report.Inventory

	// Flows is the synthesized traffic crossing the observed network
	// during the unclean window (October 1–14), in time order.
	Flows []netflow.Record
	// FlowCount is the number of records in the unclean window.
	FlowCount int
	// PayloadSources are the distinct sources with at least one
	// payload-bearing flow in the window.
	PayloadSources ipset.Set
	// TCPSources are the distinct sources with at least one TCP flow.
	TCPSources ipset.Set

	// PhishPresent is the phishing sub-report for the unclean window
	// (the paper's 2302-address sub-report of R_phish).
	PhishPresent ipset.Set
	// PhishTest is the old phishing sub-report (the paper's 1386
	// addresses) used in Figure 5.
	PhishTest ipset.Set

	// Table 2's partition, derived on first use (Table2).
	table2Once sync.Once
	table2     *Table2Result
	table2Err  error
}

// Build generates the dataset: world, traffic, detector-derived observed
// reports, and provided reports. Deterministic in cfg.
func Build(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Each pipeline stage runs under a span, so every world build
	// contributes to the process stage-timing table (obs.DefaultTrace).
	spWorld := obs.StartSpan("build/world")
	wcfg := simnet.DefaultConfig(cfg.Scale)
	wcfg.Seed = cfg.Seed
	world, err := simnet.NewWorld(wcfg)
	spWorld.End()
	if err != nil {
		return nil, err
	}
	ds := &Dataset{Cfg: cfg, World: world}

	// The observed reports, in one fold over the unclean window's days:
	// each worker counts its days' records and feeds them to its own
	// source sets and detectors, and the workers' accumulators merge
	// once every day is done.
	opts := windowOptions(cfg.BenignPerDay)
	spFlows := obs.StartSpan("build/flows")
	parts, err := simnet.Fold(world, UncleanFrom, UncleanTo, opts, newWindowFold)
	spFlows.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: observed reports: %w", err)
	}

	spDetect := obs.StartSpan("build/detect")
	acc := parts[0]
	for _, p := range parts[1:] {
		acc.Merge(p)
	}
	slices.SortFunc(acc.days, func(a, b dayCount) int { return a.day.Compare(b.day) })
	perDay := make([]int, len(acc.days))
	for i, d := range acc.days {
		perDay[i] = d.flows
		ds.FlowCount += d.flows
	}
	ds.PayloadSources, ds.TCPSources = acc.sources.Sets()
	scanSet := acc.scan.Scanners()
	spamSet := acc.spam.Spammers()
	spDetect.End()

	spControl := obs.StartSpan("build/control")
	controlSet, err := DrawControl(world, cfg.Seed)
	spControl.End()
	if err != nil {
		return nil, err
	}

	// Provided reports from the world's ground-truth observers, and the
	// inventory of all six.
	spReports := obs.StartSpan("build/reports")
	botSet := world.MonitoredBotsActive(UncleanFrom, UncleanTo)
	phishSet := world.PhishFeed().AddrsBetween(PhishFrom, UncleanTo)
	ds.PhishPresent = world.PhishFeed().AddrsBetween(PhishPresentFrom, UncleanTo)
	ds.PhishTest = world.PhishFeed().AddrsBetween(PhishFrom, PhishTestTo)

	observed := world.Model.Observed()
	inv := &report.Inventory{Title: "Unclean reports"}
	add := func(tag string, typ report.Type, class report.Class, from, to, method string, addrs ipset.Set) {
		r := &report.Report{Tag: tag, Type: typ, Class: class, Method: method, Addrs: addrs}
		r.ValidFrom, r.ValidTo = mustDate(from), mustDate(to)
		inv.Add(r.Sanitize(observed))
	}
	add("bot", report.Provided, report.ClassBots, "2006-10-01", "2006-10-14",
		"Bot addresses acquired through private reports from a third party", botSet)
	add("phish", report.Provided, report.ClassPhishing, "2006-05-01", "2006-10-14",
		"Addresses from a Phishing report list", phishSet)
	add("scan", report.Observed, report.ClassScanning, "2006-10-01", "2006-10-14",
		"IP addresses scanning the observed network", scanSet)
	add("spam", report.Observed, report.ClassSpamming, "2006-10-01", "2006-10-14",
		"IP addresses spamming the observed network", spamSet)
	add("bot-test", report.Provided, report.ClassBots, "2006-05-10", "2006-05-10",
		"Botnet addresses acquired through private communication", world.BotTest())
	add("control", report.Observed, report.ClassNone, "2006-09-25", "2006-10-02",
		"Control addresses acquired from the observed network", controlSet)
	ds.Inventory = inv
	spReports.End()

	// The flow log, each day synthesized again straight into its slot.
	// It is placed last, so the collection its allocation starts also
	// reclaims the garbage of the control draw and the reports.
	spLog := obs.StartSpan("build/log")
	ds.Flows, err = world.SynthesizeCounted(UncleanFrom, UncleanTo, opts, perDay)
	spLog.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: flow log: %w", err)
	}
	return ds, nil
}

// DrawControl draws the control report of a world built from seed: the
// payload-bearing TCP sources of the prior week, modeled by an
// activity-weighted population draw of the paper's control size scaled
// to the world, capped at half its hosts.
func DrawControl(world *simnet.World, seed uint64) (ipset.Set, error) {
	size := min(world.ScaledSize(PaperControlSize), world.Model.TotalHosts()/2)
	return world.ControlSample(size, stats.NewRNG(seed^0xc0417))
}

// windowOptions are the flow options of the unclean window: benign
// sources per day plus the candidate-block extras of §6.
func windowOptions(benignPerDay int) simnet.FlowOptions {
	return simnet.FlowOptions{BenignSourcesPerDay: benignPerDay, CandidateExtras: true}
}

// windowFold is one worker's share of Build's fold over the unclean
// window: the record count of each of its days, the payload-bearing and
// TCP sources, and the detectors of the observed scan and spam reports.
// The scan detector evaluates each day's hourly buckets at the day's end.
type windowFold struct {
	days    []dayCount
	flows   int // the current day's records so far
	sources *simnet.SourceSets
	scan    *scandetect.Threshold
	spam    *spamdetect.Detector
}

// dayCount is the number of records of one day of the window.
type dayCount struct {
	day   time.Time
	flows int
}

func newWindowFold() (*windowFold, error) {
	scan, err := scandetect.NewThreshold(scandetect.DefaultThresholdConfig())
	if err != nil {
		return nil, err
	}
	spam, err := spamdetect.NewDetector(spamdetect.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &windowFold{sources: simnet.NewSourceSets(), scan: scan, spam: spam}, nil
}

func (f *windowFold) Consume(recs []netflow.Record) {
	f.flows += len(recs)
	f.sources.Consume(recs)
	f.scan.Consume(recs)
	f.spam.Consume(recs)
}

func (f *windowFold) EndDay(day time.Time) {
	f.days = append(f.days, dayCount{day, f.flows})
	f.flows = 0
	f.scan.EndDay(day)
}

func (f *windowFold) Merge(other *windowFold) {
	f.days = append(f.days, other.days...)
	f.sources.Merge(other.sources)
	f.scan.Merge(other.scan)
	f.spam.Merge(other.spam)
}

// Sweep is the §6 prefix sweep: it scores the unclean window's traffic,
// synthesized with benignPerDay benign sources a day as Build does,
// against every list of ms in one fold over the window's days. Each
// worker's evaluator scores that worker's days, and the evaluators merge
// once every day is done. It returns the merged evaluator and the
// window's flow count.
func Sweep(world *simnet.World, benignPerDay int, ms *blocklist.MatcherSet) (*blocklist.SweepEvaluator, int) {
	// Fold fails only when a folder cannot be made, and these always can.
	parts, _ := simnet.Fold(world, UncleanFrom, UncleanTo, windowOptions(benignPerDay), func() (*sweepFold, error) {
		return &sweepFold{sv: blocklist.NewSweepEvaluator(ms)}, nil
	})
	acc := parts[0]
	for _, p := range parts[1:] {
		acc.sv.Merge(p.sv)
		acc.flows += p.flows
	}
	return acc.sv, acc.flows
}

// sweepFold is one worker's share of Sweep's fold.
type sweepFold struct {
	sv    *blocklist.SweepEvaluator
	flows int
}

func (f *sweepFold) Consume(recs []netflow.Record) {
	f.sv.Consume(recs)
	f.flows += len(recs)
}

func (f *sweepFold) EndDay(time.Time) {}

func mustDate(s string) time.Time {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		panic(err)
	}
	return t
}

// Report returns the report with the given tag, panicking if absent.
func (ds *Dataset) Report(tag string) *report.Report { return ds.Inventory.MustGet(tag) }

// Unclean returns the union of the four unclean reports: R_unclean of
// Table 2.
func (ds *Dataset) Unclean() ipset.Set {
	u := ds.Report("bot").Addrs
	u = u.Union(ds.Report("phish").Addrs)
	u = u.Union(ds.Report("scan").Addrs)
	u = u.Union(ds.Report("spam").Addrs)
	return u
}
