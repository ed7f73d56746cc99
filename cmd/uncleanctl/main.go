// Command uncleanctl is the reproduction driver: it generates the
// measurement world, derives the Table 1 reports through the detector
// pipeline, and regenerates the paper's tables and figures.
//
// Usage:
//
//	uncleanctl list
//	uncleanctl run [-exp all|table1|fig1|...] [-scale N] [-seed N] [-draws N]
//	uncleanctl reports -out DIR [-scale N] [-seed N]
//	uncleanctl score [-scale N] [-seed N] [-top N]
//	uncleanctl bench [-scale N] [-dir DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/core"
	"unclean/internal/experiments"
	"unclean/internal/netflow"
	"unclean/internal/obs"
	"unclean/internal/report"
	"unclean/internal/simnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uncleanctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("no command")
	}
	switch args[0] {
	case "list":
		fmt.Println("experiments (paper artifact -> id):")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		return nil
	case "run":
		return cmdRun(args[1:])
	case "reports":
		return cmdReports(args[1:])
	case "score":
		return cmdScore(args[1:])
	case "track":
		return cmdTrack(args[1:])
	case "block":
		return cmdBlock(args[1:])
	case "bench":
		return cmdBench(args[1:])
	case "analyze":
		return cmdAnalyze(args[1:])
	case "inspect":
		return cmdInspect(args[1:])
	case "figures":
		return cmdFigures(args[1:])
	case "status":
		return cmdStatus(args[1:])
	case "top":
		return cmdTop(args[1:])
	case "diagnose":
		return cmdDiagnose(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown command %q", args[0])
}

func usage() {
	fmt.Fprint(os.Stderr, `uncleanctl — reproduce "Using uncleanliness to predict future botnet addresses" (IMC 2007)

commands:
  list                  list experiment ids
  run     [flags]       run experiments and print the tables/figures
  reports [flags]       generate and write the Table 1 reports + artifacts
  score   [flags]       rank networks by multidimensional uncleanliness
  track   [flags]       stream weekly reports through the decaying tracker
                        and compare its blocklist against a static one
  block   [flags]       score the October traffic against the compiled
                        C_n(R_bot-test) sweep and report blocking throughput
  bench   [flags]       run the §6 pipeline end-to-end (world, compressed
                        control sample, mmap-served image, folded sweep)
                        and print wall time / allocs / peak RSS in
                        go-bench format for the benchjson gate
  analyze [flags]       run the spatial/temporal tests over .report files
                        on disk (see: uncleanctl reports)
  inspect [flags]       coordinated-activity view of one network's traffic
  figures -out DIR      render every figure (and the Table 3 sweep) as SVG
  status  -metrics ADDR one-screen health/feed/SLO/event view of a
                        running dnsbld (reads its diagnostic HTTP surface)
  top     -metrics ADDR live query analytics of a running dnsbld: top
                        clients, hottest subnets, and the prediction
                        scoreboard (addresses queried before listing)
  diagnose [flags]      capture or triage a diagnostics bundle:
                        -metrics ADDR pulls /debug/bundle from a running
                        dnsbld (and -out DIR saves it);
                        -summarize FILE prints a one-screen offline
                        triage view of a captured bundle

common flags: -scale (denominator: 64 means 1/64 of paper scale; any
value >= 1 is accepted, including fractional ones like 2.5), -seed, -draws
`)
}

func commonFlags(fs *flag.FlagSet) (scaleDen *float64, seed *uint64, draws *int, benign *int) {
	scaleDen = fs.Float64("scale", 64, "scale denominator: N means 1/N of the paper's data scale; accepts any value >= 1, including fractional (2.5 means 1/2.5)")
	seed = fs.Uint64("seed", 20061001, "random seed")
	draws = fs.Int("draws", 1000, "control subsets per estimate (paper: 1000)")
	benign = fs.Int("benign", 400, "benign sources per day in synthesized traffic")
	return
}

// checkBits refuses a -bits prefix length outside [0,32].
func checkBits(cmd string, bits int) error {
	if bits < 0 || bits > 32 {
		return fmt.Errorf("%s: -bits must be in [0,32] (got %d)", cmd, bits)
	}
	return nil
}

// checkSweepRange refuses the -lo/-hi pairs blocklist.SweepSet refuses.
func checkSweepRange(cmd string, lo, hi int) error {
	switch {
	case lo < 0 || lo > 32:
		return fmt.Errorf("%s: -lo must be in [0,32] (got %d)", cmd, lo)
	case hi < lo || hi > 32:
		return fmt.Errorf("%s: -hi must be between -lo (%d) and 32 (got %d)", cmd, lo, hi)
	case hi-lo+1 > 32:
		return fmt.Errorf("%s: -lo %d to -hi %d sweeps %d prefix lengths, more than 32", cmd, lo, hi, hi-lo+1)
	}
	return nil
}

func configFrom(scaleDen float64, seed uint64, draws, benign int) (experiments.Config, error) {
	if scaleDen < 1 {
		return experiments.Config{}, fmt.Errorf("-scale must be >= 1 (got %v)", scaleDen)
	}
	cfg := experiments.Default()
	cfg.Scale = 1 / scaleDen
	cfg.Seed = seed
	cfg.Draws = draws
	cfg.BenignPerDay = benign
	return cfg, cfg.Validate()
}

func buildDataset(cfg experiments.Config) (*experiments.Dataset, error) {
	if cfg.Scale > 1.0/8 {
		fmt.Fprintf(os.Stderr, "note: scale 1/%g holds the full flow log in memory; "+
			"for paper-scale resource numbers use `uncleanctl bench -scale 1`, "+
			"which folds the window without keeping it\n", 1/cfg.Scale)
	}
	fmt.Fprintf(os.Stderr, "building world at scale 1/%g (seed %d)...\n", 1/cfg.Scale, cfg.Seed)
	start := time.Now()
	ds, err := experiments.Build(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "world ready in %v: %d networks, %d episodes, %d flows\n",
		time.Since(start).Round(time.Millisecond),
		ds.World.Model.NetworkCount(), ds.World.EpisodeCount(), len(ds.Flows))
	return ds, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	scaleDen, seed, draws, benign := commonFlags(fs)
	exp := fs.String("exp", "all", "experiment id or 'all'")
	format := fs.String("format", "text", "output format: text | csv (csv only for figures/table3)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("run: unknown format %q", *format)
	}
	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if !slices.Contains(experiments.IDs(), ids[i]) && !slices.Contains(experiments.ExtraIDs(), ids[i]) {
				return fmt.Errorf("run: -exp %q is no experiment (know %v + %v)",
					ids[i], experiments.IDs(), experiments.ExtraIDs())
			}
		}
	}
	cfg, err := configFrom(*scaleDen, *seed, *draws, *benign)
	if err != nil {
		return err
	}
	ds, err := buildDataset(cfg)
	if err != nil {
		return err
	}
	for _, id := range ids {
		res, err := experiments.Run(ds, id)
		if err != nil {
			return err
		}
		if *format == "csv" {
			c, ok := res.(experiments.CSVer)
			if !ok {
				return fmt.Errorf("run: experiment %s has no CSV form", res.ID())
			}
			fmt.Printf("# %s: %s\n%s", res.ID(), res.Title(), c.CSV())
			continue
		}
		fmt.Printf("==== %s ====\n%s\n\n%s\n", res.ID(), res.Title(), res.Render())
	}
	// The per-run stage-timing table: world build stages plus one span
	// per experiment, slowest first. Then the kernel's peak resident set
	// (VmHWM), where /proc has it.
	if tbl := obs.DefaultTrace().Table(); tbl != "" {
		fmt.Fprintf(os.Stderr, "\nstage timings:\n%s", tbl)
	}
	if pm, ok := obs.ReadProcMem(); ok {
		fmt.Fprintf(os.Stderr, "peak RSS %d MB\n", pm.Peak>>20)
	}
	return nil
}

func cmdReports(args []string) error {
	fs := flag.NewFlagSet("reports", flag.ContinueOnError)
	scaleDen, seed, draws, benign := commonFlags(fs)
	out := fs.String("out", "", "output directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("reports: -out is required")
	}
	cfg, err := configFrom(*scaleDen, *seed, *draws, *benign)
	if err != nil {
		return err
	}
	ds, err := buildDataset(cfg)
	if err != nil {
		return err
	}
	if err := ds.Inventory.SaveDir(*out); err != nil {
		return err
	}
	for _, rep := range ds.Inventory.Reports {
		fmt.Printf("wrote %s (%d addresses)\n", filepath.Join(*out, rep.Tag+report.Ext), rep.Size())
	}
	// Phishing feed.
	feedPath := filepath.Join(*out, "phish.feed")
	f, err := os.Create(feedPath)
	if err != nil {
		return err
	}
	if err := ds.World.PhishFeed().Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d incidents)\n", feedPath, ds.World.PhishFeed().Len())
	// NetFlow archive of the unclean window.
	flowPath := filepath.Join(*out, "october.nf5")
	nf, err := os.Create(flowPath)
	if err != nil {
		return err
	}
	w := netflow.NewWriter(nf, experiments.UncleanFrom)
	for i := range ds.Flows {
		if err := w.Write(ds.Flows[i]); err != nil {
			nf.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d flow records)\n", flowPath, len(ds.Flows))
	return nil
}

// cmdBlock is the operational face of the §6 experiment: compile the
// bot-test prefix sweep once, score the whole unclean window's traffic
// against it in one fold over days (experiments.Sweep), and report what
// each prefix length would have blocked — plus the throughput the
// compiled engine sustains.
func cmdBlock(args []string) error {
	fs := flag.NewFlagSet("block", flag.ContinueOnError)
	scaleDen, seed, draws, benign := commonFlags(fs)
	lo := fs.Int("lo", 24, "shortest blocked prefix length")
	hi := fs.Int("hi", 32, "longest blocked prefix length")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkSweepRange("block", *lo, *hi); err != nil {
		return err
	}
	cfg, err := configFrom(*scaleDen, *seed, *draws, *benign)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "building world at scale 1/%g (seed %d)...\n", 1/cfg.Scale, cfg.Seed)
	wcfg := simnet.DefaultConfig(cfg.Scale)
	wcfg.Seed = cfg.Seed
	world, err := simnet.NewWorld(wcfg)
	if err != nil {
		return err
	}
	ms, err := blocklist.SweepSet(world.BotTest(), *lo, *hi)
	if err != nil {
		return err
	}
	start := time.Now()
	sv, total := experiments.Sweep(world, cfg.BenignPerDay, ms)
	elapsed := time.Since(start)
	fmt.Printf("scored %d flows from %d distinct sources in %v (%.0f flows/sec, %d lists per probe)\n\n",
		total, sv.Sources(), elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), ms.Lists())
	fmt.Printf("%3s %12s %12s %15s %15s\n", "n", "blocked", "passed", "payload-blocked", "sources-blocked")
	for i, e := range sv.Results() {
		fmt.Printf("%3d %12d %12d %15d %15d\n",
			*lo+i, e.FlowsBlocked, e.FlowsPassed, e.PayloadBlocked, e.BlockedSources.Len())
	}
	return nil
}

func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ContinueOnError)
	scaleDen, seed, draws, benign := commonFlags(fs)
	top := fs.Int("top", 20, "networks to list")
	bits := fs.Int("bits", 24, "scoring prefix length")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *top < 0 {
		return fmt.Errorf("score: -top must be >= 0 (got %d)", *top)
	}
	if err := checkBits("score", *bits); err != nil {
		return err
	}
	cfg, err := configFrom(*scaleDen, *seed, *draws, *benign)
	if err != nil {
		return err
	}
	ds, err := buildDataset(cfg)
	if err != nil {
		return err
	}
	scorer, err := ds.Scores(*bits)
	if err != nil {
		return err
	}
	fmt.Printf("top %d unclean /%d networks (of %d with evidence):\n\n", *top, *bits, scorer.BlockCount())
	fmt.Printf("%-20s %9s %7s %7s %7s %7s  ground truth u\n", "block", "aggregate", "bot", "scan", "spam", "phish")
	for _, sb := range scorer.Rank(*top) {
		truth := "-"
		if n, ok := ds.World.Model.FindNetwork(sb.Block.Base()); ok {
			truth = fmt.Sprintf("%.2f (%s)", n.Unclean, n.Profile)
		}
		fmt.Printf("%-20s %9.3f %7.2f %7.2f %7.2f %7.2f  %s\n",
			sb.Block, sb.Score.Aggregate,
			sb.Score.ByDim[core.DimBot], sb.Score.ByDim[core.DimScan],
			sb.Score.ByDim[core.DimSpam], sb.Score.ByDim[core.DimPhish], truth)
	}
	return nil
}
