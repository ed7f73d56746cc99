package experiments

import (
	"os"
	"strings"
	"sync"
	"testing"
)

var (
	dsOnce sync.Once
	dsVal  *Dataset
	dsErr  error
)

func getDataset(t testing.TB) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		dsVal, dsErr = Build(Quick())
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestConfigValidate(t *testing.T) {
	good := Quick()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Scale = 2 },
		func(c *Config) { c.Draws = 0 },
		func(c *Config) { c.BenignPerDay = -1 },
	}
	for i, mutate := range bad {
		c := Quick()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := Build(Config{}); err == nil {
		t.Error("Build with zero config should fail")
	}
}

func TestDatasetInventory(t *testing.T) {
	ds := getDataset(t)
	for _, tag := range []string{"bot", "phish", "scan", "spam", "bot-test", "control"} {
		rep := ds.Report(tag)
		if rep.Size() == 0 {
			t.Errorf("report %s is empty", tag)
		}
	}
	// Size ordering matches the paper: control >> bot > spam > scan >
	// phish-ish ordering need not be exact, but control dominates and
	// bot-test is tiny.
	control := ds.Report("control").Size()
	bot := ds.Report("bot").Size()
	if control < 10*bot {
		t.Errorf("control (%d) should dwarf bot (%d)", control, bot)
	}
	if bt := ds.Report("bot-test").Size(); bt > 200 {
		t.Errorf("bot-test (%d) should be tiny", bt)
	}
	// Detectors must have found a real portion of the active scanners
	// and spammers.
	if scan := ds.Report("scan").Size(); scan < 50 {
		t.Errorf("scan report suspiciously small: %d", scan)
	}
	if spam := ds.Report("spam").Size(); spam < 50 {
		t.Errorf("spam report suspiciously small: %d", spam)
	}
}

func TestObservedReportsAreBotSubpopulations(t *testing.T) {
	// Most detected scanners/spammers must be ground-truth bots: the
	// detectors derive the reports but the epidemic generates them.
	ds := getDataset(t)
	bots := ds.World.BotsActive(UncleanFrom, UncleanTo)
	for _, tag := range []string{"scan", "spam"} {
		rep := ds.Report(tag).Addrs
		inBots := rep.Intersect(bots).Len()
		frac := float64(inBots) / float64(rep.Len())
		if frac < 0.8 {
			t.Errorf("%s: only %.2f of detections are ground-truth bots", tag, frac)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	ds := getDataset(t)
	res := Table1(ds)
	out := res.Render()
	for _, want := range []string{"bot-test", "control", "Paper size", "Measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
	if res.ID() != "table1" || res.Title() == "" {
		t.Error("metadata wrong")
	}
}

func TestFigure1Shape(t *testing.T) {
	ds := getDataset(t)
	f := Figure1(ds)
	if len(f.Dates) != len(f.Scanners) || len(f.Dates) != len(f.Bot24Scanning) {
		t.Fatal("ragged series")
	}
	if f.ReportDay < 0 {
		t.Fatal("bot-test date not inside the Figure 1 window")
	}
	// The paper's key observation: the /24-level series dominates the
	// address-level series.
	addrTotal, blockTotal := 0, 0
	for i := range f.Dates {
		if f.Bot24Scanning[i] < f.BotAddrScanning[i] {
			t.Fatalf("day %d: /24 overlap (%d) below address overlap (%d)",
				i, f.Bot24Scanning[i], f.BotAddrScanning[i])
		}
		addrTotal += f.BotAddrScanning[i]
		blockTotal += f.Bot24Scanning[i]
	}
	if blockTotal <= addrTotal {
		t.Errorf("block-level series (%d) does not dominate address series (%d)", blockTotal, addrTotal)
	}
	// Around the report date, a nontrivial share of the botnet scans.
	if peak := f.PeakBotFraction(ds.Report("bot-test").Size()); peak < 0.05 {
		t.Errorf("peak bot-scanning fraction %.3f too low", peak)
	}
	if !strings.Contains(f.Render(), "unique scanners/day") {
		t.Error("render missing series")
	}
}

func TestFigure1DetectedAgreesWithGroundTruth(t *testing.T) {
	// The detector-driven series must track the ground-truth series: on
	// each shared day most fast scanners are detected, so the two curves
	// stay within a constant factor. Run over the full window at quick
	// scale (days synthesize concurrently).
	ds := getDataset(t)
	truth := Figure1(ds)
	detected, err := Figure1Detected(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(detected.Dates) != len(truth.Dates) {
		t.Fatalf("series lengths differ: %d vs %d", len(detected.Dates), len(truth.Dates))
	}
	if detected.ReportDay != truth.ReportDay {
		t.Errorf("report day differs: %d vs %d", detected.ReportDay, truth.ReportDay)
	}
	var truthTotal, detectedTotal int
	for i := range truth.Dates {
		truthTotal += truth.Scanners[i]
		detectedTotal += detected.Scanners[i]
	}
	ratio := float64(detectedTotal) / float64(truthTotal)
	// The hourly detector misses slow scanners (~20% of scanners) and
	// per-day activity gaps, so detected < truth but the same order.
	if ratio < 0.4 || ratio > 1.1 {
		t.Errorf("detected/truth scanner-day ratio %.2f outside [0.4, 1.1]", ratio)
	}
	// The headline property holds on the detected series too.
	for i := range detected.Dates {
		if detected.Bot24Scanning[i] < detected.BotAddrScanning[i] {
			t.Fatalf("day %d: /24 overlap below address overlap in detected series", i)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	ds := getDataset(t)
	f, err := Figure2(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Density.Holds {
		t.Error("spatial uncleanliness does not hold for the bot report")
	}
	// The naive estimate must sit far above both the empirical estimate
	// and the bot density at mid prefixes (the Figure 2 observation).
	for _, row := range f.Density.Rows {
		if row.Bits > 24 {
			break
		}
		if row.Naive <= row.Observed {
			t.Errorf("/%d: naive (%d) not above bot (%d)", row.Bits, row.Naive, row.Observed)
		}
		if float64(row.Naive) <= row.Control.Median {
			t.Errorf("/%d: naive (%d) not above empirical median (%.0f)", row.Bits, row.Naive, row.Control.Median)
		}
	}
	if !strings.Contains(f.Render(), "Naive") {
		t.Error("render missing naive column")
	}
}

func TestFigure3Shape(t *testing.T) {
	ds := getDataset(t)
	f, err := Figure3(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Every unclean report is denser than control (the paper's Figure 3
	// conclusion across all four panels).
	for _, tag := range f.Order {
		if !f.Panels[tag].Holds {
			t.Errorf("spatial uncleanliness fails for %s", tag)
		}
	}
	if len(f.Order) != 4 {
		t.Error("figure 3 should have 4 panels")
	}
	if !strings.Contains(f.Render(), "R_phish") {
		t.Error("render missing panels")
	}
}

func TestFigure4Shape(t *testing.T) {
	ds := getDataset(t)
	f, err := Figure4(ds)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's central positive results: bot-test predicts future
	// bots, spamming and scanning...
	for _, tag := range []string{"bot", "spam", "scan"} {
		p := f.Panels[tag]
		if !p.Holds {
			t.Errorf("bot-test does not predict %s", tag)
			continue
		}
		// ...in a band of middle prefix lengths (the paper: roughly
		// 19-25 and longer for spam).
		if p.BandLo < 17 || p.BandLo > 26 {
			t.Errorf("%s: better band starts at /%d, expected a middle prefix", tag, p.BandLo)
		}
	}
	// ...and the central negative result: bot-test does NOT predict
	// phishing.
	if f.Panels["phish"].Holds {
		t.Error("bot-test predicted phishing; the paper's negative result is lost")
	}
	if !strings.Contains(f.Render(), "R_bot-test -> R_phish") {
		t.Error("render missing phish panel")
	}
}

func TestFigure5Shape(t *testing.T) {
	ds := getDataset(t)
	f, err := Figure5(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Phishing history predicts phishing (temporal uncleanliness holds
	// in the phishing dimension).
	if !f.Prediction.Holds {
		t.Error("phish-test does not predict phishing")
	}
	if f.PhishTestSize == 0 || f.PhishPresentSize == 0 {
		t.Error("phish sub-reports empty")
	}
	if !strings.Contains(f.Render(), "R_phish-test") {
		t.Error("render wrong")
	}
}

func TestTable2Shape(t *testing.T) {
	ds := getDataset(t)
	r, err := Table2(ds)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Partition
	if p.Candidate.IsEmpty() {
		t.Fatal("empty candidate population")
	}
	if p.Hostile.IsEmpty() {
		t.Error("no hostile candidates")
	}
	if p.Unknown.IsEmpty() {
		t.Error("no unknown candidates")
	}
	// The paper's proportions: unknown is the largest class, innocents
	// the smallest.
	if p.Unknown.Len() <= p.Innocent.Len() {
		t.Errorf("unknown (%d) should exceed innocent (%d)", p.Unknown.Len(), p.Innocent.Len())
	}
	if p.Hostile.Len() <= p.Innocent.Len() {
		t.Errorf("hostile (%d) should exceed innocent (%d)", p.Hostile.Len(), p.Innocent.Len())
	}
	if !strings.Contains(r.Render(), "candidate") {
		t.Error("render wrong")
	}
}

func TestTable3Shape(t *testing.T) {
	ds := getDataset(t)
	r, err := Table3(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d, want 9 (n=24..32)", len(r.Rows))
	}
	r24 := r.Rows[0]
	// The paper's headline: at n=24 the true positive rate is high (90%
	// in the paper; we require a clear majority) and unknowns are
	// substantial.
	if r24.TPRate() < 0.6 {
		t.Errorf("/24 TP rate %.2f too low (TP=%d FP=%d)", r24.TPRate(), r24.TP, r24.FP)
	}
	if r24.TPRateAssumingUnknownHostile() < r24.TPRate() {
		t.Error("unknown-hostile rate should not decrease")
	}
	// Monotone non-increasing columns.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].TP > r.Rows[i-1].TP || r.Rows[i].FP > r.Rows[i-1].FP {
			t.Error("blocking counts not monotone")
		}
	}
	// The ROC view of the sweep must beat chance decisively.
	if auc := r.ROC.AUC(); auc < 0.6 {
		t.Errorf("blocking AUC = %.3f, want > 0.6", auc)
	}
	// The locality argument: observed candidates are a small fraction of
	// the blockable span.
	if r.Span24 == 0 || float64(r.Seen)/float64(r.Span24) > 0.10 {
		t.Errorf("observed fraction %.3f of blockable span too high", float64(r.Seen)/float64(r.Span24))
	}
	if !strings.Contains(r.Render(), "TP rate") {
		t.Error("render wrong")
	}
}

func TestLocalityShape(t *testing.T) {
	ds := getDataset(t)
	r := Locality(ds)
	if len(r.Payload.Days) != 14 {
		t.Fatalf("payload days = %d, want 14", len(r.Payload.Days))
	}
	// Benign audiences are stable: returning fraction must be
	// substantial after day one.
	if rf := r.Payload.ReturningFraction(); rf < 0.2 {
		t.Errorf("payload returning fraction %.3f too low for a stable audience", rf)
	}
	// Scanners inflate the all-sources working set far beyond the
	// payload one.
	if r.All.WorkingSet.Len() <= r.Payload.WorkingSet.Len() {
		t.Error("all-sources working set should exceed payload working set")
	}
	// The §6.2 argument: a tiny fraction of the blockable span talks.
	if r.Frac > 0.10 {
		t.Errorf("span utilization %.3f too high", r.Frac)
	}
	if r.ID() != "locality" || !strings.Contains(r.Render(), "span utilization") {
		t.Error("metadata/render wrong")
	}
}

func TestOverlapShape(t *testing.T) {
	ds := getDataset(t)
	r, err := Overlap(ds)
	if err != nil {
		t.Fatal(err)
	}
	phish := indexOf(OverlapLabels, "phish")
	bot := indexOf(OverlapLabels, "bot")
	// The paper's cross-relationship claim, quantified at /24 (at /16
	// the tiny scaled universe saturates and everything overlaps): bots
	// share blocks with scan/spam far more than phishing shares with any
	// of them.
	botRelated := r.At24.MeanOffDiagonal(bot, phish)
	phishRelated := r.At24.MeanOffDiagonal(phish)
	if botRelated < 3*phishRelated {
		t.Errorf("bot relatedness %.3f not well above phish %.3f", botRelated, phishRelated)
	}
	if botRelated < 0.3 {
		t.Errorf("bot/scan/spam overlap %.3f too weak", botRelated)
	}
	if !strings.Contains(r.Render(), "phish") || r.ID() != "overlap" {
		t.Error("metadata/render wrong")
	}
}

func TestTrackerShape(t *testing.T) {
	ds := getDataset(t)
	r, err := Tracker(ds)
	if err != nil {
		t.Fatal(err)
	}
	if r.Weeks < 20 {
		t.Fatalf("only %d observation weeks", r.Weeks)
	}
	if r.Blocks == 0 {
		t.Fatal("tracker accumulated no evidence")
	}
	if len(r.Sweep) != 4 {
		t.Fatalf("sweep rows = %d", len(r.Sweep))
	}
	for i := 1; i < len(r.Sweep); i++ {
		if r.Sweep[i].Rules > r.Sweep[i-1].Rules {
			t.Error("higher threshold produced more rules")
		}
		if r.Sweep[i].Confusion.TP > r.Sweep[i-1].Confusion.TP {
			t.Error("higher threshold found more true positives")
		}
	}
	// The tracker at a mid threshold should recover the bulk of the
	// hostile candidates the static list catches, with fewer false
	// positives at high threshold.
	mid := r.Sweep[1] // 0.5
	if float64(mid.Confusion.TP) < 0.7*float64(r.Static.TP) {
		t.Errorf("tracker TP %d far below static %d", mid.Confusion.TP, r.Static.TP)
	}
	high := r.Sweep[3] // 0.9
	if high.Confusion.FP > r.Static.FP {
		t.Errorf("high-threshold tracker FP %d above static %d", high.Confusion.FP, r.Static.FP)
	}
	if !strings.Contains(r.Render(), "Threshold") || r.ID() != "tracker" {
		t.Error("metadata/render wrong")
	}
}

func TestCSVExports(t *testing.T) {
	ds := getDataset(t)
	for _, id := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table3"} {
		res, err := Run(ds, id)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := res.(CSVer)
		if !ok {
			t.Errorf("%s does not export CSV", id)
			continue
		}
		out := c.CSV()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) < 2 {
			t.Errorf("%s CSV has no data rows", id)
			continue
		}
		cols := strings.Count(lines[0], ",")
		for i, line := range lines {
			if strings.Count(line, ",") != cols {
				t.Errorf("%s CSV row %d has ragged columns", id, i)
				break
			}
		}
	}
	// Inventory tables have no meaningful series; ensure they opt out.
	if _, ok := any(Table1(ds)).(CSVer); ok {
		t.Error("table1 unexpectedly exports CSV")
	}
}

func TestWriteSVGs(t *testing.T) {
	ds := getDataset(t)
	dir := t.TempDir()
	paths, err := WriteSVGs(ds, dir)
	if err != nil {
		t.Fatal(err)
	}
	// 1 (fig1) + 1 (fig2) + 4 (fig3) + 4 (fig4) + 1 (fig5) + 1 (table3).
	if len(paths) != 12 {
		t.Fatalf("wrote %d files, want 12: %v", len(paths), paths)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "<svg") || !strings.Contains(string(data), "</svg>") {
			t.Errorf("%s is not an SVG document", p)
		}
	}
}

func TestRunAll(t *testing.T) {
	ds := getDataset(t)
	results, err := RunAll(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("results = %d", len(results))
	}
	for i, res := range results {
		if res.ID() != IDs()[i] {
			t.Errorf("result %d = %s, want %s", i, res.ID(), IDs()[i])
		}
		if res.Title() == "" || res.Render() == "" {
			t.Errorf("%s: empty output", res.ID())
		}
	}
	if _, err := Run(ds, "fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
