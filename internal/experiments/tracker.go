package experiments

import (
	"fmt"
	"strings"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/core"
	"unclean/internal/tracker"
)

// TrackerResult is the §7 future-work extension experiment: weekly
// ground-truth reports stream through the time-decaying multidimensional
// tracker up to the eve of the October window; the resulting blocklists
// are scored against the October candidate partition next to the paper's
// static bot-test /24 list.
type TrackerResult struct {
	// Weeks is the number of observation rounds streamed.
	Weeks int
	// Blocks is the number of /24s holding evidence at the eve.
	Blocks int
	// Static is the confusion of the bot-test /24 list.
	Static blocklist.Confusion
	// Sweep holds, per threshold, the tracker blocklist's size and
	// confusion.
	Sweep []TrackerOperatingPoint
	// HalfLife is the evidence half-life used.
	HalfLife time.Duration
}

// TrackerOperatingPoint is one row of the threshold sweep.
type TrackerOperatingPoint struct {
	Threshold float64
	Rules     int
	Confusion blocklist.Confusion
}

// Tracker runs the extension experiment with the default six-week
// half-life.
func Tracker(ds *Dataset) (*TrackerResult, error) {
	return TrackerWithHalfLife(ds, tracker.DefaultConfig().HalfLife)
}

// Scores folds the four October reports into a tracker over bits-bit
// blocks, all on one date, so nothing decays: a block with k addresses
// in a report scores 1 - exp(-k/τ) in that report's dimension. This is
// the static form of the §7 score that uncleanctl's score and inspect
// commands and the examples rank and list.
func (ds *Dataset) Scores(bits int) (*tracker.Tracker, error) {
	cfg := tracker.DefaultConfig()
	cfg.Bits = bits
	tr, err := tracker.New(cfg)
	if err != nil {
		return nil, err
	}
	for d := core.DimBot; d <= core.DimPhish; d++ {
		// Each dimension's name is its report's tag.
		if err := tr.Observe(d, ds.Report(d.String()).Addrs, UncleanTo); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// TrackerWithHalfLife runs the extension experiment with an explicit
// evidence half-life.
func TrackerWithHalfLife(ds *Dataset, halfLife time.Duration) (*TrackerResult, error) {
	w := ds.World
	tcfg := tracker.DefaultConfig()
	tcfg.HalfLife = halfLife
	tr, err := tracker.New(tcfg)
	if err != nil {
		return nil, err
	}
	eve := UncleanFrom.AddDate(0, 0, -1)
	weeks := 0
	for from := w.Cfg.Start; from.Before(eve); from = from.AddDate(0, 0, 7) {
		to := from.AddDate(0, 0, 6)
		if to.After(eve) {
			to = eve
		}
		mid := from.AddDate(0, 0, 3)
		if err := tr.Observe(core.DimBot, w.MonitoredBotsActive(from, to), to); err != nil {
			return nil, err
		}
		if err := tr.Observe(core.DimScan, w.ScannersOn(mid), to); err != nil {
			return nil, err
		}
		if err := tr.Observe(core.DimSpam, w.SpammersOn(mid), to); err != nil {
			return nil, err
		}
		if err := tr.Observe(core.DimPhish, w.PhishFeed().AddrsBetween(from, to), to); err != nil {
			return nil, err
		}
		weeks++
	}
	tr.AdvanceTo(eve)

	t2, err := Table2(ds)
	if err != nil {
		return nil, err
	}
	p := t2.Partition
	// The static list and one list per threshold, scored in one pass.
	thresholds := []float64{0.3, 0.5, 0.7, 0.9}
	lists := []*blocklist.Trie{blocklist.FromSet(ds.Report("bot-test").Addrs, 24, "bot-test")}
	for _, th := range thresholds {
		lists = append(lists, blocklist.FromSet(tr.Blocklist(th), tcfg.Bits, "tracker"))
	}
	ms, err := blocklist.CompileSet(lists)
	if err != nil {
		return nil, err
	}
	sv := blocklist.NewSweepEvaluator(ms)
	sv.Consume(ds.Flows)
	evals := sv.Results()
	res := &TrackerResult{
		Weeks:    weeks,
		Blocks:   tr.BlockCount(),
		HalfLife: halfLife,
		Static:   evals[0].Score(p.Hostile, p.Innocent),
	}
	for i, th := range thresholds {
		res.Sweep = append(res.Sweep, TrackerOperatingPoint{
			Threshold: th,
			Rules:     lists[i+1].Len(),
			Confusion: evals[i+1].Score(p.Hostile, p.Innocent),
		})
	}
	return res, nil
}

// ID implements Result.
func (r *TrackerResult) ID() string { return "tracker" }

// Title implements Result.
func (r *TrackerResult) Title() string {
	return "Extension: streaming multidimensional uncleanliness tracker (§7 future work)"
}

// Render implements Result.
func (r *TrackerResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d weekly observation rounds, %d /24s with evidence, half-life %v\n\n",
		r.Weeks, r.Blocks, r.HalfLife)
	fmt.Fprintf(&b, "static bot-test /24 list: %s\n\n", r.Static)
	t := newTable("Threshold", "Rules", "TP", "FP", "TPR", "FPR")
	for _, op := range r.Sweep {
		t.addRow(fmt.Sprintf("%.2f", op.Threshold),
			fmt.Sprintf("%d", op.Rules),
			fmt.Sprintf("%d", op.Confusion.TP),
			fmt.Sprintf("%d", op.Confusion.FP),
			fmt.Sprintf("%.3f", op.Confusion.TPR()),
			fmt.Sprintf("%.3f", op.Confusion.FPR()))
	}
	b.WriteString(t.String())
	return b.String()
}
