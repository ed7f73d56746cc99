package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/experiments"
	"unclean/internal/ipset"
	"unclean/internal/obs"
	"unclean/internal/simnet"
)

// cmdBench runs the §6 pipeline end-to-end at the requested scale and
// prints the resource story in `go test -bench` text format, so the
// benchjson machinery can archive it as a BENCH_*.json artifact and
// gate regressions (including peak RSS) against a committed baseline.
//
// The pipeline is the paper's, not a microbenchmark: build the world,
// draw the control sample (46.9M addresses at -scale 1) into compressed
// containers, serve it back through the mmap-friendly v2 image, then fold
// the whole unclean window through the compiled C_n(R_bot-test) sweep
// (experiments.Sweep). Peak RSS comes from the kernel's VmHWM high-water
// mark, so it covers every phase — including the ones that would blow
// up without the compressed sets and the fold's bounded day buffers.
//
// Each phase, and each stage of the world build inside it, is a span on
// the process-wide obs trace; the stage table goes to stderr at the end,
// so stdout stays benchjson input.
func cmdBench(args []string) error { return runBench(args, os.Stdout, os.Stderr) }

func runBench(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	scaleDen, seed, _, benign := commonFlags(fs)
	lo := fs.Int("lo", 24, "shortest blocked prefix length")
	hi := fs.Int("hi", 32, "longest blocked prefix length")
	dir := fs.String("dir", "", "work directory for the mapped control image (default: a temp dir)")
	progressEvery := fs.Duration("progress", 5*time.Second,
		"print a stage/elapsed/RSS progress line to stderr at this interval (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkSweepRange("bench", *lo, *hi); err != nil {
		return err
	}
	cfg, err := configFrom(*scaleDen, *seed, 1, *benign)
	if err != nil {
		return err
	}
	workdir := *dir
	if workdir == "" {
		workdir, err = os.MkdirTemp("", "unclean-bench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(workdir)
	}
	scaleTag := fmt.Sprintf("scale=%g", *scaleDen)

	// The header lines benchjson uses to label the document.
	fmt.Fprintf(stdout, "goos: %s\ngoarch: %s\npkg: unclean/bench\n", runtime.GOOS, runtime.GOARCH)

	var startStats runtime.MemStats
	runtime.ReadMemStats(&startStats)
	startAll := time.Now()
	obs.DefaultTrace().Reset()
	progress := newBenchProgress(stderr, *progressEvery)
	defer progress.Stop()

	// Phase 1: the measurement world.
	fmt.Fprintf(stderr, "bench: building world at scale 1/%g (seed %d)...\n", 1/cfg.Scale, cfg.Seed)
	progress.Stage("world")
	sp := obs.StartSpan("bench/world")
	wcfg := simnet.DefaultConfig(cfg.Scale)
	wcfg.Seed = cfg.Seed
	world, err := simnet.NewWorld(wcfg)
	if err != nil {
		return err
	}
	benchLine(stdout, "BenchmarkPaperWorld/"+scaleTag, sp.End(),
		metric{int64(world.Model.NetworkCount()), "networks"})

	// Phase 2: the control report — the set whose raw form is ~188 MB
	// at paper scale — drawn into containers. The same draw as
	// experiments.Build, so this is the §6 artifact itself.
	progress.Stage("control")
	sp = obs.StartSpan("bench/control")
	control, err := experiments.DrawControl(world, cfg.Seed)
	if err != nil {
		return err
	}
	benchLine(stdout, "BenchmarkPaperControl/"+scaleTag, sp.End(),
		metric{int64(control.Len()), "addrs"},
		metric{int64(control.FootprintBytes()), "set-bytes"},
		metric{int64(control.Len()) * 4, "raw-bytes"})

	// Phase 3: persist the compressed control as a v2 image and serve
	// the paper's block-counting queries straight off the mapping.
	progress.Stage("mapped")
	sp = obs.StartSpan("bench/mapped")
	imgPath := filepath.Join(workdir, "control.v2")
	if err := control.WriteFileV2(imgPath); err != nil {
		return err
	}
	mapped, err := ipset.OpenMapped(imgPath)
	if err != nil {
		return err
	}
	blocks := int64(0)
	for n := 8; n <= 32; n += 4 {
		blocks += int64(mapped.Set.BlockCount(n))
	}
	fi, err := os.Stat(imgPath)
	if err != nil {
		mapped.Close()
		return err
	}
	if err := mapped.Close(); err != nil {
		return err
	}
	benchLine(stdout, "BenchmarkPaperMapped/"+scaleTag, sp.End(),
		metric{fi.Size(), "file-bytes"},
		metric{blocks, "blocks"})

	// Phase 4: the full unclean window through the compiled prefix
	// sweep, one fold over its days.
	progress.Stage("sweep")
	sp = obs.StartSpan("bench/sweep")
	ms, err := blocklist.SweepSet(world.BotTest(), *lo, *hi)
	if err != nil {
		return err
	}
	_, flows := experiments.Sweep(world, cfg.BenignPerDay, ms)
	sweep := sp.End()
	benchLine(stdout, "BenchmarkPaperSweep/"+scaleTag, sweep,
		metric{int64(flows), "flows"},
		metric{int64(float64(flows) / sweep.Seconds()), "flows/sec"})

	// The whole pipeline, with the kernel's verdict on memory. Stop the
	// heartbeat first so no progress line lands inside the stage table.
	progress.Stop()
	var endStats runtime.MemStats
	runtime.ReadMemStats(&endStats)
	extra := []metric{{int64(endStats.Mallocs - startStats.Mallocs), "allocs/op"}}
	if pm, ok := obs.ReadProcMem(); ok {
		extra = append(extra, metric{pm.Peak, "peakRSS-bytes"})
	}
	benchLine(stdout, "BenchmarkPaperPipeline/"+scaleTag, time.Since(startAll), extra...)
	fmt.Fprintf(stderr, "\nstage timings:\n%s", obs.DefaultTrace().Table())
	return nil
}

// metric is one extra value/unit pair on a bench output line.
type metric struct {
	value int64
	unit  string
}

// benchLine prints one `go test -bench` style result line (iteration
// count 1: the pipeline runs once) that benchjson's parser accepts.
func benchLine(w io.Writer, name string, elapsed time.Duration, extras ...metric) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s \t1\t%d ns/op", name, elapsed.Nanoseconds())
	for _, m := range extras {
		fmt.Fprintf(&b, "\t%d %s", m.value, m.unit)
	}
	fmt.Fprintln(w, b.String())
}
