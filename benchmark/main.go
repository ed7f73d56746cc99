// Command benchmark measures the repository's two end-to-end paths on
// seeded workloads and checks every output:
//
//   - paper-pipeline and repro-all drive the §6 blocking pipeline and the
//     reproduction of every table and figure through the simnet, ipset,
//     blocklist and experiments packages, in a child process per run so
//     that its peak RSS and CPU time belong to the workload alone;
//   - serve-zipf and serve-reload start the real dnsbld binary and load
//     it over one UDP socket from this process.
//
// It measures from outside: it times calls into public functions, reads
// /proc and the daemon's /metrics.json, and adds no code to the program.
// Every metric is printed by name and unit; the last line of standard
// output is one JSON object
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// README.md has the workloads, the metric glossary and how to A/B two
// commits.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the experiments' default seed; golden.json holds its
// outputs and those of one held-out seed.
const defaultSeed = 20061001

// setupRepeats is how many times each paper run sets its system up, and
// a traced serve run times a reload; daemonStarts is how many times a
// serve run starts dnsbld, which takes about 20 ms. setup_s is the
// set-ups' median.
const (
	setupRepeats = 5
	daemonStarts = 21
)

// workload is one input set the benchmark runs, at its own scale. A
// paper workload runs a fixed number of passes, pass k on the input of
// passSeed(seed, k), so two commits measure the same inputs whatever
// their speed; only the serve workloads measure for -seconds.
type workload struct {
	name     string
	scaleDen float64
	passes   int
	run      func(ctx context.Context, o *options, r *runReport, tr *tracer) error
}

var workloads = []workload{
	{"paper-pipeline", 8, 1, runPaper},
	{"repro-all", 64, 3, runPaper},
	{"serve-zipf", 64, 0, runServe},
	{"serve-reload", 64, 0, runServe},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
	scaleDen float64
	passes   int
	dnsbld   string
	work     string
	child    string
	builds   int
	probe    bool
	// golden is set per run: outputs are compared with golden.json only
	// at the workload's own scale.
	golden bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	o := &options{}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-pipeline, repro-all, serve-zipf or serve-reload (empty runs all four)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "how long a serve run loads the daemon (a paper run always runs its fixed passes)")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "also write the full reports as JSON to this file")
	fs.Float64Var(&o.scaleDen, "scale", 0, "run every workload at 1/N of paper scale instead of its own (goldens are then unchecked)")
	fs.StringVar(&o.dnsbld, "dnsbld", "", "dnsbld binary for the serve workloads (default: dnsbld next to this executable)")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for scratch files and trace-<workload>.json")
	fs.StringVar(&o.child, "child", "", "internal: run a paper workload's measured part in this process")
	fs.IntVar(&o.builds, "builds", 1, "internal: with -child paper-pipeline, build the world this many times")
	fs.BoolVar(&o.probe, "probe", false, "internal: with -child, report ready and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.scaleDen != 0 && o.scaleDen < 1 {
		return nil, fmt.Errorf("-scale must be 0 or >= 1, got %g", o.scaleDen)
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	if o.dnsbld == "" && o.child == "" {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		o.dnsbld = filepath.Join(filepath.Dir(self), "dnsbld")
	}
	return o, nil
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.child != "" {
		return childMain(o)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	var reports []*runReport
	failed := false
	for _, name := range names {
		r, err := runWorkload(o, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.print(os.Stdout)
		reports = append(reports, r)
		failed = failed || r.Failed > 0
	}
	if o.out != "" {
		b, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("output check failed")
	}
	return nil
}

// runWorkload runs one workload in a scratch directory of its own and,
// when tracing, writes its spans to trace-<workload>.json.
func runWorkload(base *options, name string) (*runReport, error) {
	w, _ := workloadByName(name)
	o := *base
	o.workload = name
	o.golden = o.scaleDen == 0 || o.scaleDen == w.scaleDen
	o.scaleDen, o.passes = w.scaleDen, w.passes
	if base.scaleDen != 0 {
		o.scaleDen = base.scaleDen
	}
	work, err := os.MkdirTemp(base.work, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	o.work = work

	// A hung daemon or child must not outlive the run's time limit.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second+2*time.Duration(o.seconds)*time.Second)
	defer cancel()
	r := &runReport{Workload: name, Seed: o.seed, ScaleDen: o.scaleDen, Seconds: o.seconds,
		Traced: o.trace, Machine: readMachine(), Golden: "unchecked",
		E2E: map[string]float64{}, Layers: map[string]float64{}}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	steal0, total0 := cpuTicks()
	if err := w.run(ctx, &o, r, tr); err != nil {
		return nil, err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		r.Machine.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	if tr != nil {
		path := filepath.Join(base.work, "trace-"+name+".json")
		if err := tr.write(path, r); err != nil {
			return nil, err
		}
		r.Notes = append(r.Notes, "trace written to "+path)
	}
	return r, nil
}

// runReport is one run's outcome: every metric it measured and every check
// it made.
type runReport struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	ScaleDen  float64            `json:"scale_den"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Machine   machine            `json:"machine"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Golden    string             `json:"golden"`
	Problems  []string           `json:"problems,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	E2E       map[string]float64 `json:"e2e"`
	Layers    map[string]float64 `json:"layers"`
}

// maxProblems caps the failures listed by description; all are counted.
const maxProblems = 20

// check records one attempted operation and, when it failed, why.
func (r *runReport) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Problems) < maxProblems {
			r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
		}
	}
}

// checkGolden compares a run's output digest with golden.json, when the
// run is at the workload's own scale and the seed has an entry.
func (r *runReport) checkGolden(o *options, got golden) {
	want, ok := goldens()[r.Workload][strconv.FormatUint(o.seed, 10)]
	if !o.golden || !ok {
		return
	}
	r.Golden = "passed"
	if got != want {
		r.Golden = "mismatch"
	}
	r.check(got == want, "golden mismatch: got %+v, want %+v", got, want)
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// e2eDefs are the end-to-end metrics, reported by every workload. An
// operation is one verified pass for the paper workloads and one DNS
// query for the serve workloads.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerDefs are the per-layer metrics of traced runs. Every workload
// reports all of them; a layer a workload does not exercise reads 0.
var layerDefs = []metricDef{
	{"simnet.control_s", "s"},
	{"simnet.control_addrs_per_s", "1/s"},
	{"ipset.compress_s", "s"},
	{"ipset.set_bytes", "bytes"},
	{"ipset.image_write_s", "s"},
	{"ipset.image_open_s", "s"},
	{"ipset.blockcount_s", "s"},
	{"ipset.image_bytes", "bytes"},
	{"blocklist.sweepset_s", "s"},
	{"simnet.synth_s", "s"},
	{"simnet.merge_s", "s"},
	{"simnet.stream_s", "s"},
	{"simnet.spill_bytes", "bytes"},
	{"simnet.spill_segments", "count"},
	{"simnet.flows", "count"},
	{"simnet.deliveries", "count"},
	{"blocklist.consume_s", "s"},
	{"blocklist.consume_flows_per_s", "1/s"},
	{"blocklist.results_s", "s"},
	{"blocklist.sources", "count"},
	{"experiments.build_s", "s"},
	{"experiments.build.world_s", "s"},
	{"experiments.build.flows_s", "s"},
	{"experiments.build.detect_s", "s"},
	{"experiments.runall_s", "s"},
	{"experiments.table1_s", "s"},
	{"experiments.fig1_s", "s"},
	{"experiments.fig2_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.table3_s", "s"},
	{"experiments.render_s", "s"},
	{"bench.spill_scan_s", "s"},
	{"bench.check_s", "s"},
	{"runtime.allocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.attributed_frac", "fraction"},
	{"trace_overhead_frac", "fraction"},
	{"dnsbl.batch_size", "packets"},
	{"dnsbl.cache_hit_frac", "fraction"},
	{"dnsbl.slowpath_frac", "fraction"},
	{"dnsbl.handle_p50_ns", "ns"},
	{"dnsbl.handle_p99_ns", "ns"},
	{"dnsbl.shed", "count"},
	{"dnsbl.dropped", "count"},
	{"dnsbl.kernel_drops", "count"},
	{"dnsbld.reloads", "count"},
	{"dnsbld.gc_pause_p99_us", "us"},
	{"dnsbld.heap_live_mb", "MB"},
	{"blocklist.lookup_ns", "ns"},
	{"dnsbld.reload_ms", "ms"},
	{"loadgen.qps", "1/s"},
	{"loadgen.rtt_p99_us", "us"},
	{"loadgen.rtt_p999_us", "us"},
	{"loadgen.cpu_us_per_query", "us"},
	{"loadgen.busy_frac", "fraction"},
	{"loadgen.tail_us", "us"},
	{"loadgen.samples", "count"},
}

// print writes every metric by name and unit, then the result line.
func (r *runReport) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  scale 1/%g  seconds %d  trace %v\n",
		r.Workload, r.Seed, r.ScaleDen, r.Seconds, r.Traced)
	m := r.Machine
	fmt.Fprintf(w, "machine  nproc %d  gomaxprocs %d  cpu %q  %s  steal %.4f\n", m.NProc, m.GOMAXPROCS, m.CPU, m.Go, m.StealFrac)
	fmt.Fprintf(w, "check    golden %s  attempted %d  failed %d  fail_frac %.6g\n",
		r.Golden, r.Attempted, r.Failed, float64(r.Failed)/math.Max(1, float64(r.Attempted)))
	for _, p := range r.Problems {
		fmt.Fprintf(w, "problem  %s\n", p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note     %s\n", n)
	}
	for _, d := range e2eDefs {
		fmt.Fprintf(w, "e2e      %-30s %-16.8g %s\n", d.name, r.E2E[d.name], d.unit)
	}
	if r.Traced {
		for _, d := range layerDefs {
			fmt.Fprintf(w, "layer    %-30s %-16.8g %s\n", d.name, r.Layers[d.name], d.unit)
		}
	}
	defs, vals := e2eDefs, r.E2E
	if r.Traced {
		defs, vals = layerDefs, r.Layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// machine identifies where a run was measured. StealFrac is the share of
// all CPU time during the run that the hypervisor gave to other guests:
// on a shared host, the run's timings are only as steady as it is low.
type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	StealFrac  float64 `json:"steal_frac"`
}

func readMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// cpuTicks returns the steal and total ticks of all CPUs so far, from
// the first line of /proc/stat; zeros where it is unreadable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0, 0
	}
	for _, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
	}
	steal, _ = strconv.ParseUint(f[8], 10, 64)
	return steal, total
}

// golden is the expected output of one workload at one seed.
type golden struct {
	Flows  int    `json:"flows,omitempty"`
	Digest string `json:"digest"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

// goldens returns golden.json: workload → seed → expected output.
func goldens() map[string]map[string]golden {
	var g map[string]map[string]golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("benchmark: testdata/golden.json: " + err.Error()) // embedded at build time
	}
	return g
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, 0.5)
}

// sortedQuantile is quantile for an already sorted slice.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
