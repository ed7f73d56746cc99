package experiments

import (
	"fmt"
	"strings"

	"unclean/internal/core"
	"unclean/internal/ipset"
	"unclean/internal/stats"
)

// Figure4Result reproduces Figure 4: the comparative predictive capacity
// of the five-month-old bot-test report against the October unclean
// reports — bots, phishing, spamming, scanning.
type Figure4Result struct {
	// Panels holds the per-class prediction results.
	Panels map[string]core.PredictResult
	// Order preserves the paper's panel order.
	Order []string
}

// Figure4 runs the four-panel prediction test.
func Figure4(ds *Dataset) (*Figure4Result, error) {
	botTest := ds.Report("bot-test").Addrs
	control := ds.Report("control").Addrs
	presents := map[string]ipset.Set{
		"bot":   ds.Report("bot").Addrs,
		"phish": ds.PhishPresent,
		"spam":  ds.Report("spam").Addrs,
		"scan":  ds.Report("scan").Addrs,
	}
	rng := stats.NewRNG(ds.Cfg.Seed ^ 0xf164)
	panels, err := core.CrossPrediction(botTest, presents, control, ds.Cfg.Draws, threshold,
		core.DefaultPrefixRange(), rng)
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Panels: panels, Order: []string{"bot", "phish", "spam", "scan"}}, nil
}

// ID implements Result.
func (r *Figure4Result) ID() string { return "fig4" }

// Title implements Result.
func (r *Figure4Result) Title() string {
	return "Figure 4: predictive capacity of R_bot-test vs control"
}

// Render implements Result.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	for i, tag := range r.Order {
		b.WriteString(renderPredictPanel(fmt.Sprintf("(%s) R_bot-test -> R_%s", panelLabel(i), tag), r.Panels[tag]))
		b.WriteByte('\n')
	}
	return b.String()
}

func renderPredictPanel(caption string, p core.PredictResult) string {
	var b strings.Builder
	band := "none"
	if p.Holds {
		band = fmt.Sprintf("/%d../%d", p.BandLo, p.BandHi)
	}
	fmt.Fprintf(&b, "%s  [temporal uncleanliness holds: %v, better band: %s]\n", caption, p.Holds, band)
	t := newTable("Prefix", "Observed ∩", "Control median", "Control min..max", "P(beat control)", "Better")
	for _, row := range p.Rows {
		t.addRow(fmt.Sprintf("/%d", row.Bits),
			fmt.Sprintf("%d", row.Observed),
			fmt.Sprintf("%.0f", row.Control.Median),
			fmt.Sprintf("%.0f..%.0f", row.Control.Min, row.Control.Max),
			fmt.Sprintf("%.3f", row.FractionBeaten),
			markIf(row.Better, "*"))
	}
	b.WriteString(t.String())
	return b.String()
}

// Figure5Result reproduces Figure 5: the predictive capacity of an old
// phishing report against current phishing activity — the test showing
// temporal uncleanliness holds for phishing when predicted from its own
// history.
type Figure5Result struct {
	Prediction core.PredictResult
	// PhishTestSize and PhishPresentSize record the sub-report sizes
	// (the paper's were 1386 and 2302).
	PhishTestSize, PhishPresentSize int
}

// Figure5 runs the phish-history test.
func Figure5(ds *Dataset) (*Figure5Result, error) {
	control := ds.Report("control").Addrs
	rng := stats.NewRNG(ds.Cfg.Seed ^ 0xf165)
	p, err := core.PredictiveCapacity(ds.PhishTest, ds.PhishPresent, control,
		ds.Cfg.Draws, threshold, core.DefaultPrefixRange(), rng)
	if err != nil {
		return nil, err
	}
	return &Figure5Result{
		Prediction:       p,
		PhishTestSize:    ds.PhishTest.Len(),
		PhishPresentSize: ds.PhishPresent.Len(),
	}, nil
}

// ID implements Result.
func (r *Figure5Result) ID() string { return "fig5" }

// Title implements Result.
func (r *Figure5Result) Title() string {
	return "Figure 5: predictive capacity of phishing history for phishing"
}

// Render implements Result.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "|R_phish-test| = %d, |R_phish-present| = %d\n",
		r.PhishTestSize, r.PhishPresentSize)
	b.WriteString(renderPredictPanel("R_phish-test -> R_phish-present", r.Prediction))
	return b.String()
}
