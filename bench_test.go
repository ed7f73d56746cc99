// Benchmarks regenerating every table and figure in the paper's
// evaluation, plus the ablations called out in DESIGN.md §5. Each
// benchmark reports the experiment's key statistic through
// b.ReportMetric so regressions in the reproduced *shape* (not just
// speed) are visible in benchmark output.
//
// Run: go test -bench=. -benchmem
package unclean_test

import (
	"sync"
	"testing"

	"unclean/internal/core"
	"unclean/internal/experiments"
	"unclean/internal/ipset"
	"unclean/internal/nac"
	"unclean/internal/netflow"
	"unclean/internal/netmodel"
	"unclean/internal/scandetect"
	"unclean/internal/simnet"
	"unclean/internal/stats"
)

// The benchmark dataset is built once at a scale between the test and CLI
// configurations, with the paper's full 1000-draw estimates left to the
// CLI (benchmarks use 200 to keep -bench runs minutes, not hours).
var (
	benchOnce sync.Once
	benchDS   *experiments.Dataset
	benchErr  error
)

func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Draws = 200
	return cfg
}

func dataset(b *testing.B) *experiments.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = experiments.Build(benchConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS
}

func BenchmarkBuildDataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := experiments.Build(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(ds.Flows)), "flows")
	}
}

func BenchmarkTable1(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(ds)
		if res.Render() == "" {
			b.Fatal("empty table")
		}
	}
	b.ReportMetric(float64(ds.Report("bot").Size()), "bot-addrs")
	b.ReportMetric(float64(ds.Report("control").Size()), "control-addrs")
}

func BenchmarkFigure1(b *testing.B) {
	ds := dataset(b)
	var res *experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure1(ds)
	}
	b.ReportMetric(res.PeakBotFraction(ds.Report("bot-test").Size()), "peak-bot-frac")
}

func BenchmarkFigure2(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(ds)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Density.Holds {
			b.Fatal("spatial uncleanliness lost")
		}
		r20 := res.Density.Rows[20-16]
		b.ReportMetric(float64(r20.Naive)/float64(r20.Observed), "naive/bot-blocks@20")
	}
}

func BenchmarkFigure3(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(ds)
		if err != nil {
			b.Fatal(err)
		}
		holds := 0.0
		for _, tag := range res.Order {
			if res.Panels[tag].Holds {
				holds++
			}
		}
		b.ReportMetric(holds, "panels-holding")
	}
}

func BenchmarkFigure4(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Panels["bot"].BandLo), "bot-band-lo")
		phishHolds := 0.0
		if res.Panels["phish"].Holds {
			phishHolds = 1
		}
		b.ReportMetric(phishHolds, "phish-predicted")
	}
}

func BenchmarkFigure5(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(ds)
		if err != nil {
			b.Fatal(err)
		}
		holds := 0.0
		if res.Prediction.Holds {
			holds = 1
		}
		b.ReportMetric(holds, "phish-self-predicted")
	}
}

func BenchmarkTable2(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Partition.Candidate.Len()), "candidates")
	}
}

func BenchmarkTable3(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].TPRate(), "tp-rate@24")
		b.ReportMetric(res.Rows[0].TPRateAssumingUnknownHostile(), "tp-rate-unk@24")
	}
}

// BenchmarkAblationNaiveControl quantifies the Figure 2 design choice:
// how much the naive uniform estimate overstates block counts relative to
// the empirical estimate.
func BenchmarkAblationNaiveControl(b *testing.B) {
	ds := dataset(b)
	bot := ds.Report("bot").Addrs
	control := ds.Report("control").Addrs
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(uint64(i) + 1)
		naive := netmodel.NaiveSample(bot.Len(), rng)
		res, err := core.SpatialDensity(bot, control, naive, 50, core.PrefixRange{Lo: 20, Hi: 24}, rng)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(last.Naive)/last.Control.Median, "naive/empirical@24")
	}
}

// BenchmarkAblationReportAge sweeps the age of the predicting bot report:
// the paper's five-month gap is the extreme case, so fresher reports
// should intersect the October activity at least as strongly.
func BenchmarkAblationReportAge(b *testing.B) {
	ds := dataset(b)
	w := ds.World
	present := ds.Report("bot").Addrs
	for _, weeks := range []int{1, 4, 10, 20} {
		b.Run(byWeeks(weeks), func(b *testing.B) {
			to := experiments.UncleanFrom.AddDate(0, 0, -7*weeks)
			from := to.AddDate(0, 0, -1)
			past := w.MonitoredBotsActive(from, to)
			if past.IsEmpty() {
				b.Skip("no bots in window")
			}
			var observed int
			for i := 0; i < b.N; i++ {
				observed = past.BlockIntersectCount(present, 24)
			}
			b.ReportMetric(float64(observed)/float64(past.BlockCount(24)), "hit-frac@24")
		})
	}
}

func byWeeks(w int) string {
	return map[int]string{1: "age=1w", 4: "age=4w", 10: "age=10w", 20: "age=20w"}[w]
}

// BenchmarkAblationUniformUncleanliness rebuilds the world with
// uncleanliness drawn uniformly instead of beta-concentrated; the spatial
// effect should weaken markedly (higher observed/control block ratio).
func BenchmarkAblationUniformUncleanliness(b *testing.B) {
	for _, mode := range []string{"concentrated", "uniform"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wcfg := simnet.DefaultConfig(benchConfig().Scale)
				wcfg.Seed = benchConfig().Seed
				if mode == "uniform" {
					wcfg.Model = netmodel.DefaultConfig()
					wcfg.Model.TargetNetworks = 0
					wcfg.Model.Slash16PerSlash8 = 0
					wcfg.Model.UncleanAlpha, wcfg.Model.UncleanBeta = 1, 1
					// Rescale the infection rate so the epidemic size
					// matches the concentrated world (E[u^2] is 1/3 for
					// Uniform vs ~0.031 for Beta(0.6,4.5)); only the
					// *placement* of compromises should differ.
					wcfg.InfectionRate *= 0.031 / (1.0 / 3.0)
				}
				w, err := simnet.NewWorld(wcfg)
				if err != nil {
					b.Fatal(err)
				}
				bots := w.MonitoredBotsActive(experiments.UncleanFrom, experiments.UncleanTo)
				rng := stats.NewRNG(5)
				control, err := w.ControlSample(bots.Len()*10, rng)
				if err != nil {
					b.Fatal(err)
				}
				// The clustering signal lives at /16: with concentrated
				// uncleanliness, bots pack into the unclean /16s; with
				// uniform uncleanliness they spread like the control.
				res, err := core.SpatialDensity(bots, control, ipset.Set{}, 30,
					core.PrefixRange{Lo: 16, Hi: 16}, rng)
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				b.ReportMetric(float64(row.Observed)/row.Control.Median, "obs/control-blocks@16")
			}
		})
	}
}

// BenchmarkAblationSampling quantifies flow-based detection under packet
// sampling: the hourly scan detector's report shrinks as the exporter
// samples more aggressively, because 2-3 packet probes vanish from the
// flow log.
func BenchmarkAblationSampling(b *testing.B) {
	ds := dataset(b)
	baseline := thresholdScanners(b, ds.Flows)
	for _, interval := range []int{1, 10, 100} {
		b.Run(byInterval(interval), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sampled, err := netflow.SampleRecords(ds.Flows, interval, stats.NewRNG(uint64(interval)))
				if err != nil {
					b.Fatal(err)
				}
				got := thresholdScanners(b, sampled)
				b.ReportMetric(float64(got.Len())/float64(baseline.Len()), "scan-recall")
				b.ReportMetric(float64(len(sampled))/float64(len(ds.Flows)), "flow-survival")
			}
		})
	}
}

// thresholdScanners runs the hourly scan detector over records.
func thresholdScanners(b *testing.B, records []netflow.Record) ipset.Set {
	t, err := scandetect.NewThreshold(scandetect.DefaultThresholdConfig())
	if err != nil {
		b.Fatal(err)
	}
	t.Consume(records)
	return t.Scanners()
}

func byInterval(i int) string {
	return map[int]string{1: "1-in-1", 10: "1-in-10", 100: "1-in-100"}[i]
}

// BenchmarkAblationClustering quantifies the §4.1 design choice of
// homogeneous CIDR blocks over network-aware clustering: heterogeneous
// cluster spans differ by orders of magnitude, which is why the paper
// rejects them for density comparisons.
func BenchmarkAblationClustering(b *testing.B) {
	ds := dataset(b)
	control := ds.Report("control").Addrs
	bot := ds.Report("bot").Addrs
	for i := 0; i < b.N; i++ {
		clustering, err := nac.Build(control, 256, 8, 24)
		if err != nil {
			b.Fatal(err)
		}
		spans := clustering.SpanStats()
		b.ReportMetric(spans.Max/spans.Min, "span-max/min")
		b.ReportMetric(float64(clustering.Len()), "clusters")
		// The unclean report still concentrates: it covers fewer
		// clusters than its own cardinality.
		b.ReportMetric(float64(clustering.CoverCount(bot))/float64(bot.Len()), "bot-cover-frac")
	}
}

// BenchmarkExtLocality reports the extension experiment's headline
// numbers: the stable benign audience and the §6.2 span utilization.
func BenchmarkExtLocality(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		res := experiments.Locality(ds)
		b.ReportMetric(res.Payload.ReturningFraction(), "returning-frac")
		b.ReportMetric(res.Frac, "span-utilization")
	}
}

// BenchmarkAblationDetectors compares the hourly threshold detector (the
// paper's) against TRW feeding the same temporal test: TRW additionally
// catches slow scanners, enlarging the scan report.
func BenchmarkAblationDetectors(b *testing.B) {
	ds := dataset(b)
	for i := 0; i < b.N; i++ {
		threshold := thresholdScanners(b, ds.Flows)
		trw, err := scandetect.DetectTRW(ds.Flows, scandetect.DefaultTRWConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(threshold.Len()), "threshold-scanners")
		b.ReportMetric(float64(trw.Len()), "trw-scanners")
	}
}
