package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/experiments"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/obs"
	"unclean/internal/simnet"
	"unclean/internal/stats"
)

// The paper workloads run each pass in a child process of this binary,
// as a user runs uncleanctl once per result, so that each pass's peak
// RSS and CPU time are its own. A child prints "ready" once started,
// then one JSON childResult.

const (
	// sweepLo and sweepHi bound the C_n(R_bot-test) prefix sweep, as in
	// uncleanctl bench.
	sweepLo, sweepHi = 24, 32
	// spillBudgetScale8 is the per-worker spill budget at scale 1/8: it
	// reproduces scale 1's fan-in of about three segments per day. Other
	// scales get the budget scaled with the data.
	spillBudgetScale8 = 32 << 20
	// benignPerDay is uncleanctl's -benign default.
	benignPerDay = 400
	// controlSeedMix derives the control sample's RNG from the seed, as
	// experiments.Build and uncleanctl bench do.
	controlSeedMix = 0xc0417
)

// childResult is one pass, as its child reports it.
type childResult struct {
	SetupS   []float64          `json:"setup_s"` // paper-pipeline: each simnet.NewWorld
	PassS    float64            `json:"pass_s"`
	CPUS     float64            `json:"cpu_s"`
	Problems []string           `json:"problems"`
	Out      golden             `json:"out"`
	Layers   map[string]float64 `json:"layers"`
	Spans    []span             `json:"spans"`

	peakRSS float64 // the child's VmHWM in MB, filled in by runChild
}

// passSeed is the seed of a run's k-th input: the run's own seed first,
// then seeds derived from it. At the paper workloads' scales a world's
// size varies with its seed, so a run that spans several worlds is
// steadier than one that repeats a world.
func passSeed(seed uint64, k int) uint64 { return seed + 1_000_003*uint64(k) }

// runPaper runs o.passes passes, one child each, pass k on input k. A
// traced run runs each input twice, untraced then traced: the e2e
// numbers come from the untraced passes, the per-layer numbers are the
// traced passes' means.
func runPaper(ctx context.Context, o *options, r *runReport, tr *tracer) error {
	var setup []float64
	if o.workload == "repro-all" {
		// The repro workload's set-up is process start until Build
		// begins: each child gives one sample, probe children the rest.
		for i := 0; i < setupRepeats-1; i++ {
			ready, _, err := runChild(ctx, o, o.seed, false, 0, true)
			if err != nil {
				return err
			}
			setup = append(setup, ready.Seconds())
		}
	}
	var untraced, traced []*childResult
	children := o.passes
	if o.trace {
		children *= 2
	}
	for i := 0; i < children; i++ {
		k, isTraced := i, false
		if o.trace {
			k, isTraced = i/2, i%2 == 1
		}
		builds := 1
		if i == 0 {
			builds = setupRepeats
		}
		ready, res, err := runChild(ctx, o, passSeed(o.seed, k), isTraced, builds, false)
		if err != nil {
			return err
		}
		if o.workload == "repro-all" {
			setup = append(setup, ready.Seconds())
		} else {
			setup = append(setup, res.SetupS...)
		}
		if isTraced && res.Out != untraced[len(untraced)-1].Out {
			res.Problems = append(res.Problems, fmt.Sprintf("traced pass of input %d: output %+v, untraced %+v", k, res.Out, untraced[len(untraced)-1].Out))
		}
		r.check(len(res.Problems) == 0, "pass %d: %s", i, strings.Join(res.Problems, "; "))
		if isTraced {
			traced = append(traced, res)
			base := len(tr.spans)
			for _, sp := range res.Spans {
				if sp.Parent >= 0 {
					sp.Parent += base
				}
				sp.Run = i
				tr.spans = append(tr.spans, sp)
			}
		} else {
			untraced = append(untraced, res)
		}
	}
	r.checkGolden(o, untraced[0].Out)

	var pass, cpu, rss []float64
	for _, res := range untraced {
		pass = append(pass, res.PassS)
		cpu = append(cpu, res.CPUS)
		rss = append(rss, res.peakRSS)
	}
	r.E2E["setup_s"] = median(setup)
	r.E2E["p50_ms"] = median(pass) * 1e3
	r.E2E["cpu_ms_per_op"] = median(cpu) * 1e3
	r.E2E["peak_rss_mb"] = median(rss)
	r.Notes = append(r.Notes, fmt.Sprintf("%d untraced and %d traced passes; at seed %d: flows %d, digest %s",
		len(untraced), len(traced), o.seed, untraced[0].Out.Flows, untraced[0].Out.Digest))
	if tr == nil {
		return nil
	}
	ratios := make([]float64, len(traced))
	for i, res := range traced {
		for k, v := range res.Layers {
			r.Layers[k] += v / float64(len(traced))
		}
		ratios[i] = res.PassS / untraced[i].PassS
	}
	r.Layers["trace_overhead_frac"] = median(ratios) - 1
	return nil
}

// runChild runs one pass at seed in a child and waits for it, returning
// the time from exec until the child reported ready and its result. A
// paper-pipeline child builds its world builds times; a probe child
// exits once ready, with no result.
func runChild(ctx context.Context, o *options, seed uint64, traced bool, builds int, probe bool) (time.Duration, *childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-child", o.workload, "-seed", strconv.FormatUint(seed, 10), "-trace", trace,
		"-builds", strconv.Itoa(builds), "-scale", strconv.FormatFloat(o.scaleDen, 'g', -1, 64), "-work", o.work}
	if probe {
		args = append(args, "-probe")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // dies with the benchmark
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	br := bufio.NewReader(stdout)
	line, rerr := br.ReadString('\n')
	ready := time.Since(start)
	var res *childResult
	if rerr == nil && line == "ready\n" && !probe {
		res = &childResult{}
		rerr = json.NewDecoder(br).Decode(res)
	}
	_, _ = io.Copy(io.Discard, br) // drain so Wait sees EOF
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("child: %w", err)
	}
	if line != "ready\n" {
		return 0, nil, fmt.Errorf("child: first line %q, want ready", line)
	}
	if rerr != nil {
		return 0, nil, fmt.Errorf("child result: %w", rerr)
	}
	if res != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.peakRSS = float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
		}
	}
	return ready, res, nil
}

// childMain is the child side: set up, run one pass, report it.
func childMain(o *options) error {
	fmt.Println("ready")
	if o.probe {
		return nil
	}
	var res childResult
	var pass func(tr *tracer) (passOut, error)
	switch o.child {
	case "paper-pipeline":
		wcfg := simnet.DefaultConfig(1 / o.scaleDen)
		wcfg.Seed = o.seed
		var world *simnet.World
		for i := 0; i < o.builds; i++ {
			world = nil
			runtime.GC() // drop the previous world before building the next
			start := time.Now()
			w, err := simnet.NewWorld(wcfg)
			if err != nil {
				return err
			}
			res.SetupS = append(res.SetupS, time.Since(start).Seconds())
			world = w
		}
		budget := int(spillBudgetScale8 * 8 / o.scaleDen)
		pass = func(tr *tracer) (passOut, error) { return pipelinePass(o, world, budget, tr) }
	case "repro-all":
		pass = func(tr *tracer) (passOut, error) { return reproPass(o.scaleDen, o.seed, tr) }
	default:
		return fmt.Errorf("no child workload %q", o.child)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	root := tr.begin("pass")
	out, err := pass(tr)
	tr.end(root)
	res.PassS = time.Since(start).Seconds()
	res.CPUS = (processCPU() - cpu0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	res.Out, res.Problems = out.out, out.problems
	if tr != nil {
		l := out.counts
		for name, d := range selfTimes(tr.spans) {
			l[name+"_s"] = d.Seconds()
		}
		l["runtime.allocs"] = float64(m1.Mallocs - m0.Mallocs)
		l["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
		l["runtime.gc_pause_s"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
		// The root span's self time is what no layer span covers.
		l["trace.attributed_frac"] = 1 - l["pass_s"]/res.PassS
		if s := l["simnet.control_s"]; s > 0 {
			l["simnet.control_addrs_per_s"] = l["simnet.control_addrs"] / s
		}
		if s := l["blocklist.consume_s"]; s > 0 {
			l["blocklist.consume_flows_per_s"] = l["simnet.flows"] / s
		}
		res.Layers, res.Spans = l, tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(&res)
}

// passOut is one pass's verified output.
type passOut struct {
	out      golden
	problems []string
	// counts are per-layer values that are not span self times.
	counts map[string]float64
}

// pipelinePass runs the uncleanctl bench phases after the world: the
// compressed control sample, its v2 image served from a mapping, and the
// spilled sweep of the unclean window through C_n(R_bot-test).
func pipelinePass(o *options, world *simnet.World, budget int, tr *tracer) (passOut, error) {
	p := passOut{counts: map[string]float64{}}

	sp := tr.begin("simnet.control")
	size := world.ScaledSize(experiments.PaperControlSize)
	if limit := world.Model.TotalHosts() / 2; size > limit {
		size = limit
	}
	control, err := world.ControlSample(size, stats.NewRNG(o.seed^controlSeedMix))
	tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = tr.begin("ipset.compress")
	control = control.Compress()
	tr.end(sp)
	p.counts["simnet.control_addrs"] = float64(control.Len())
	p.counts["ipset.set_bytes"] = float64(control.FootprintBytes())

	img := filepath.Join(o.work, "control.v2")
	sp = tr.begin("ipset.image_write")
	err = control.WriteFileV2(img)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = tr.begin("ipset.image_open")
	mapped, err := ipset.OpenMapped(img)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	var mappedCounts []int
	sp = tr.begin("ipset.blockcount")
	for n := 8; n <= 32; n += 4 {
		mappedCounts = append(mappedCounts, mapped.Set.BlockCount(n))
	}
	tr.end(sp)
	if err := mapped.Close(); err != nil {
		return p, err
	}
	fi, err := os.Stat(img)
	if err != nil {
		return p, err
	}
	p.counts["ipset.image_bytes"] = float64(fi.Size())
	if err := os.Remove(img); err != nil {
		return p, err
	}
	sp = tr.begin("bench.check")
	for i, n := 0, 8; n <= 32; i, n = i+1, n+4 {
		if want := control.BlockCount(n); mappedCounts[i] != want {
			p.problems = append(p.problems, fmt.Sprintf("mapped image has %d /%d blocks, the set it was written from %d", mappedCounts[i], n, want))
		}
	}
	tr.end(sp)

	sp = tr.begin("blocklist.sweepset")
	ms, err := blocklist.SweepSet(world.BotTest(), sweepLo, sweepHi)
	var sv *blocklist.SweepEvaluator
	if err == nil {
		sv = blocklist.NewSweepEvaluator(ms)
	}
	tr.end(sp)
	if err != nil {
		return p, err
	}

	flows, deliveries := 0, 0
	opts := simnet.FlowOptions{BenignSourcesPerDay: benignPerDay, CandidateExtras: true,
		SpillBudget: budget, SpillDir: o.work}
	sp = tr.begin("simnet.stream")
	if tr == nil {
		err = world.StreamFlows(experiments.UncleanFrom, experiments.UncleanTo, opts,
			func(_ time.Time, recs []netflow.Record) error {
				flows += len(recs)
				deliveries++
				sv.Consume(recs)
				return nil
			})
	} else {
		err = tracedStream(o, world, opts, sv, tr, &p, &flows, &deliveries)
	}
	tr.end(sp)
	if err != nil {
		return p, err
	}
	p.counts["simnet.flows"] = float64(flows)
	p.counts["simnet.deliveries"] = float64(deliveries)
	p.counts["blocklist.sources"] = float64(sv.Sources())

	sp = tr.begin("blocklist.results")
	evals := sv.Results()
	tr.end(sp)
	sp = tr.begin("bench.check")
	p.out = golden{Flows: flows, Digest: digestEvals(evals)}
	p.problems = append(p.problems, checkEvals(evals, flows)...)
	tr.end(sp)
	return p, nil
}

// tracedStream is the sweep's StreamFlows call with the time between
// deliveries split from outside. StreamFlows synthesizes a batch of
// stats.Workers(days) days, then merges and delivers them day by day:
// the gap before a batch's first delivery is synthesis, every other gap
// is merging, and the time inside the callback is Consume. At each
// batch's first delivery the batch's spill segments are all on disk.
//
// The batch starts are inferred from StreamFlows's batching rule, so the
// spill directory is checked against them: segments are written only
// while a batch is synthesized and removed as each day is delivered, so
// new segment files appear at every inferred batch start (once the
// stream spills at all) and at no other day's first delivery.
func tracedStream(o *options, world *simnet.World, opts simnet.FlowOptions, sv *blocklist.SweepEvaluator,
	tr *tracer, p *passOut, flows, deliveries *int) error {
	days := int(experiments.UncleanTo.Sub(experiments.UncleanFrom)/(24*time.Hour)) + 1
	window := stats.Workers(days)
	var first, cur time.Time
	var seen map[string]int64 // the segments listed at the previous day's first delivery
	spills := false
	last := time.Now()
	return world.StreamFlows(experiments.UncleanFrom, experiments.UncleanTo, opts,
		func(day time.Time, recs []netflow.Record) error {
			now := time.Now()
			if *deliveries == 0 || !day.Equal(cur) {
				if *deliveries == 0 {
					first = day
				}
				cur = day
				batchStart := int(day.Sub(first)/(24*time.Hour))%window == 0
				if batchStart {
					tr.add("simnet.synth", last, now)
				} else {
					tr.add("simnet.merge", last, now)
				}
				sp := tr.begin("bench.spill_scan")
				segs, err := spillFiles(o.work)
				tr.end(sp)
				if err != nil {
					return err
				}
				fresh := 0
				for name := range segs {
					if _, ok := seen[name]; !ok {
						fresh++
					}
				}
				seen = segs
				date := day.Format(time.DateOnly)
				switch {
				case !batchStart && fresh > 0:
					p.problems = append(p.problems, fmt.Sprintf("%d new spill segments at %s, which is not an inferred batch start", fresh, date))
				case batchStart && *deliveries == 0:
					spills = fresh > 0
				case batchStart && spills && fresh == 0:
					p.problems = append(p.problems, fmt.Sprintf("no new spill segments at %s, an inferred batch start", date))
				}
				if batchStart {
					p.counts["simnet.spill_segments"] += float64(len(segs))
					for _, size := range segs {
						p.counts["simnet.spill_bytes"] += float64(size)
					}
				}
			} else {
				tr.add("simnet.merge", last, now)
			}
			start := time.Now()
			sv.Consume(recs)
			last = time.Now()
			tr.add("blocklist.consume", start, last)
			*flows += len(recs)
			*deliveries++
			return nil
		})
}

// spillFiles returns the spill segments in dir by name, with their sizes.
func spillFiles(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	segs := map[string]int64{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // removed since the listing: already merged
		}
		segs[e.Name()] = info.Size()
	}
	return segs, nil
}

// digestEvals hashes the sweep's results: every count per prefix length
// and every blocked source address.
func digestEvals(evals []blocklist.Eval) string {
	h := sha256.New()
	bw := bufio.NewWriter(h)
	var b [8]byte
	put := func(v int) {
		binary.BigEndian.PutUint64(b[:], uint64(v))
		bw.Write(b[:])
	}
	for _, e := range evals {
		put(e.FlowsBlocked)
		put(e.FlowsPassed)
		put(e.PayloadBlocked)
		put(e.BlockedSources.Len())
		put(e.PassedSources.Len())
		e.BlockedSources.Each(func(a netaddr.Addr) bool {
			binary.BigEndian.PutUint32(b[:4], uint32(a))
			bw.Write(b[:4])
			return true
		})
	}
	bw.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// checkEvals checks what holds for any seed: every flow is either
// blocked or passed at every prefix length, and because the /n cover of
// the bot-test report shrinks as n grows, so does what it blocks.
func checkEvals(evals []blocklist.Eval, flows int) []string {
	var problems []string
	if len(evals) != sweepHi-sweepLo+1 {
		return []string{fmt.Sprintf("sweep returned %d results, want %d", len(evals), sweepHi-sweepLo+1)}
	}
	for i, e := range evals {
		n := sweepLo + i
		if e.FlowsBlocked+e.FlowsPassed != flows {
			problems = append(problems, fmt.Sprintf("/%d: %d blocked + %d passed != %d flows", n, e.FlowsBlocked, e.FlowsPassed, flows))
		}
		if e.PayloadBlocked > e.FlowsBlocked {
			problems = append(problems, fmt.Sprintf("/%d: %d payload flows blocked of %d blocked", n, e.PayloadBlocked, e.FlowsBlocked))
		}
		if i > 0 && (e.FlowsBlocked > evals[i-1].FlowsBlocked || e.BlockedSources.Len() > evals[i-1].BlockedSources.Len()) {
			problems = append(problems, fmt.Sprintf("/%d blocks more than /%d", n, n-1))
		}
	}
	return problems
}

// reproPass is what a researcher reproducing the paper runs: Build and
// RunAll, rendered as `uncleanctl run -exp all -seed seed` prints them.
func reproPass(scaleDen float64, seed uint64, tr *tracer) (passOut, error) {
	p := passOut{counts: map[string]float64{}}
	cfg := experiments.Default()
	cfg.Scale = 1 / scaleDen
	cfg.Seed = seed
	obs.DefaultTrace().Reset()

	sp := tr.begin("experiments.build")
	ds, err := experiments.Build(cfg)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = tr.begin("experiments.runall")
	results, err := experiments.RunAll(ds)
	tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = tr.begin("experiments.render")
	var out strings.Builder
	for _, res := range results {
		fmt.Fprintf(&out, "==== %s ====\n%s\n\n%s\n", res.ID(), res.Title(), res.Render())
	}
	tr.end(sp)

	sp = tr.begin("bench.check")
	ids := experiments.IDs()
	if len(results) != len(ids) {
		p.problems = append(p.problems, fmt.Sprintf("RunAll returned %d results, want %d", len(results), len(ids)))
	}
	for i, res := range results {
		if i < len(ids) && res.ID() != ids[i] {
			p.problems = append(p.problems, fmt.Sprintf("result %d is %s, want %s", i, res.ID(), ids[i]))
		}
	}
	digest := sha256.Sum256([]byte(out.String()))
	p.out = golden{Flows: len(ds.Flows), Digest: hex.EncodeToString(digest[:])}
	tr.end(sp)

	// The program's own stage table splits Build and times each
	// experiment; the benchmark only reads it.
	p.counts["simnet.flows"] = float64(len(ds.Flows))
	for _, st := range obs.DefaultTrace().Stages() {
		switch {
		case strings.HasPrefix(st.Name, "build/"):
			p.counts["experiments.build."+strings.TrimPrefix(st.Name, "build/")+"_s"] = st.Total.Seconds()
		case strings.HasPrefix(st.Name, "experiment/"):
			p.counts["experiments."+strings.TrimPrefix(st.Name, "experiment/")+"_s"] = st.Total.Seconds()
		}
	}
	return p, nil
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
