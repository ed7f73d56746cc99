package experiments

import (
	"fmt"
	"strings"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netflow"
	"unclean/internal/scandetect"
	"unclean/internal/simnet"
)

// Figure1Result reproduces Figure 1: the relationship between scanning
// and botnet population. The upper series counts unique hosts scanning
// the observed network per day; the lower series counts how many
// addresses of the bot-test report are scanning (directly, and at the
// /24 level) each day.
type Figure1Result struct {
	// Dates holds one entry per day of the window.
	Dates []time.Time
	// Scanners is the number of unique scanning hosts per day.
	Scanners []int
	// BotAddrScanning is |scanners(day) ∩ R_bot-test|.
	BotAddrScanning []int
	// Bot24Scanning counts bot-test addresses whose /24 contains a
	// scanner that day — the paper's block-level series that dominates
	// the address-level one.
	Bot24Scanning []int
	// ReportDay is the index of the bot-test snapshot date.
	ReportDay int
}

// Figure1 computes the reproduction over the paper-analogous window
// using the world's ground-truth daily scanner sets.
func Figure1(ds *Dataset) *Figure1Result {
	return figure1From(ds, ds.World.DailyScanners(Fig1From, Fig1To), Fig1From)
}

// Figure1Detected computes the series through the full measurement
// pipeline instead: the hourly threshold scan detector derives each
// day's scanner set from that day's synthesized border traffic, exactly
// as the October observed reports are built. Much slower than Figure1
// (it synthesizes four months of traffic) but removes the ground-truth
// shortcut; available as experiment id "fig1d".
func Figure1Detected(ds *Dataset) (*Figure1Result, error) {
	w := ds.World
	lo := max(w.DayIndex(Fig1From), 0)
	daily := make([]ipset.Set, w.DayIndex(Fig1To)-lo+1)
	opts := simnet.FlowOptions{BenignSourcesPerDay: ds.Cfg.BenignPerDay, CandidateExtras: false}
	_, err := simnet.Fold(w, Fig1From, Fig1To, opts, func() (*dailyScanners, error) {
		scan, err := scandetect.NewThreshold(scandetect.DefaultThresholdConfig())
		return &dailyScanners{w: w, lo: lo, daily: daily, scan: scan}, err
	})
	if err != nil {
		return nil, err
	}
	return figure1From(ds, daily, w.Date(lo)), nil
}

// dailyScanners is one worker's share of Figure1Detected's fold: the
// scan detector over each day the worker synthesizes, whose scanners go
// to the day's entry of daily, a slice every worker shares.
type dailyScanners struct {
	w     *simnet.World
	lo    int
	daily []ipset.Set
	scan  *scandetect.Threshold
}

func (d *dailyScanners) Consume(recs []netflow.Record) { d.scan.Consume(recs) }

func (d *dailyScanners) EndDay(day time.Time) {
	d.daily[d.w.DayIndex(day)-d.lo] = d.scan.Scanners()
	d.scan.Reset()
}

func figure1From(ds *Dataset, daily []ipset.Set, start time.Time) *Figure1Result {
	w := ds.World
	botTest := w.BotTest()
	res := &Figure1Result{ReportDay: -1}
	day := start
	for _, scanners := range daily {
		res.Dates = append(res.Dates, day)
		res.Scanners = append(res.Scanners, scanners.Len())
		res.BotAddrScanning = append(res.BotAddrScanning, scanners.Intersect(botTest).Len())
		res.Bot24Scanning = append(res.Bot24Scanning, botTest.WithinBlocks(scanners, 24).Len())
		if day.Equal(w.Cfg.BotTestDate) {
			res.ReportDay = len(res.Dates) - 1
		}
		day = day.Add(24 * time.Hour)
	}
	return res
}

// ID implements Result.
func (r *Figure1Result) ID() string { return "fig1" }

// Title implements Result.
func (r *Figure1Result) Title() string {
	return "Figure 1: relationship between scanning and botnet population"
}

// PeakBotFraction returns the peak fraction of the bot-test report seen
// scanning on a single day (the paper observed 35% at peak).
func (r *Figure1Result) PeakBotFraction(botTestSize int) float64 {
	peak := 0
	for _, v := range r.BotAddrScanning {
		if v > peak {
			peak = v
		}
	}
	if botTestSize == 0 {
		return 0
	}
	return float64(peak) / float64(botTestSize)
}

// Render implements Result.
func (r *Figure1Result) Render() string {
	var b strings.Builder
	toF := func(xs []int) []float64 {
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[i] = float64(v)
		}
		return out
	}
	fmt.Fprintf(&b, "window %s .. %s (bot report at day %d)\n\n",
		r.Dates[0].Format("2006-01-02"), r.Dates[len(r.Dates)-1].Format("2006-01-02"), r.ReportDay)
	fmt.Fprintf(&b, "unique scanners/day    %s\n", sparkline(toF(r.Scanners)))
	fmt.Fprintf(&b, "bot addrs scanning     %s\n", sparkline(toF(r.BotAddrScanning)))
	fmt.Fprintf(&b, "bot /24s scanning      %s\n\n", sparkline(toF(r.Bot24Scanning)))
	t := newTable("Date", "Scanners", "Bot addrs scanning", "Bot /24s scanning")
	for i := 0; i < len(r.Dates); i += 7 {
		t.addRow(r.Dates[i].Format("2006-01-02"),
			fmt.Sprintf("%d", r.Scanners[i]),
			fmt.Sprintf("%d", r.BotAddrScanning[i]),
			fmt.Sprintf("%d%s", r.Bot24Scanning[i], markIf(i == (r.ReportDay/7)*7 && r.ReportDay >= 0, "  <- report week")))
	}
	b.WriteString(t.String())
	return b.String()
}
