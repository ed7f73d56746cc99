package experiments

import (
	"fmt"
	"time"

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
	// during the unclean window (October 1–14).
	Flows []netflow.Record
	// PayloadSources are the distinct sources with at least one
	// payload-bearing flow in Flows.
	PayloadSources ipset.Set
	// TCPSources are the distinct sources with at least one TCP flow.
	TCPSources ipset.Set

	// PhishPresent is the phishing sub-report for the unclean window
	// (the paper's 2302-address sub-report of R_phish).
	PhishPresent ipset.Set
	// PhishTest is the old phishing sub-report (the paper's 1386
	// addresses) used in Figure 5.
	PhishTest ipset.Set
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

	// Traffic for the unclean window, then the observed reports. The
	// window is streamed day by day: the payload-bearing and TCP source
	// sets accumulate per chunk instead of re-scanning the finished log,
	// and concatenating the chunks reproduces SynthesizeFlows exactly.
	spFlows := obs.StartSpan("build/flows")
	payload, tcp := ipset.NewBuilder(0), ipset.NewBuilder(0)
	err = world.StreamFlows(UncleanFrom, UncleanTo, simnet.FlowOptions{
		BenignSourcesPerDay: cfg.BenignPerDay,
		CandidateExtras:     true,
	}, func(_ time.Time, recs []netflow.Record) error {
		ds.Flows = append(ds.Flows, recs...)
		for i := range recs {
			if recs[i].PayloadBearing() {
				payload.Add(recs[i].SrcAddr)
			}
			if recs[i].Proto == netflow.ProtoTCP {
				tcp.Add(recs[i].SrcAddr)
			}
		}
		return nil
	})
	spFlows.End()
	if err != nil {
		return nil, err
	}
	ds.PayloadSources = payload.Build()
	ds.TCPSources = tcp.Build()

	spDetect := obs.StartSpan("build/detect")
	scanSet, err := scandetect.DetectThreshold(ds.Flows, scandetect.DefaultThresholdConfig())
	if err != nil {
		spDetect.End()
		return nil, fmt.Errorf("experiments: scan detection: %w", err)
	}
	spamSet, err := spamdetect.Detect(ds.Flows, spamdetect.DefaultConfig())
	spDetect.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: spam detection: %w", err)
	}

	// Provided reports from the world's ground-truth observers.
	botSet := world.MonitoredBotsActive(UncleanFrom, UncleanTo)
	phishSet := world.PhishFeed().AddrsBetween(PhishFrom, UncleanTo)
	ds.PhishPresent = world.PhishFeed().AddrsBetween(PhishPresentFrom, UncleanTo)
	ds.PhishTest = world.PhishFeed().AddrsBetween(PhishFrom, PhishTestTo)

	// Control report: payload-bearing TCP sources of the prior week,
	// modeled by an activity-weighted population draw.
	controlSize := world.ScaledSize(PaperControlSize)
	if limit := world.Model.TotalHosts() / 2; controlSize > limit {
		controlSize = limit
	}
	controlSet, err := world.ControlSample(controlSize, stats.NewRNG(cfg.Seed^0xc0417))
	if err != nil {
		return nil, err
	}

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
	return ds, nil
}

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
