// Command benchjson converts `go test -bench` text output into a JSON
// document, so CI can archive benchmark runs as machine-readable
// artifacts (BENCH_<date>.json) and trend them across commits.
//
// With -baseline it also gates the run: every benchmark matching
// -filter that appears in both the run and the baseline document is
// compared on ns/op (best of the repeated counts on each side), and the
// command exits nonzero if any is more than -tolerance slower than the
// baseline.
//
// With -allocfree the run is gated absolutely, no baseline needed:
// every benchmark matching the regexp must report allocs/op == 0 (so
// the input must come from `go test -benchmem`). Hot paths that promise
// zero allocations stay that way, or CI says which one broke the
// promise.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -out BENCH_2026-08-06.json
//	benchjson -in bench.txt -out bench.json
//	benchjson -in bench.txt -baseline BENCH_2026-08-06.json -filter 'Lookup|Eval'
//	benchjson -in bench.txt -allocfree 'ServeSharded|AnalyticsTap'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line: name, iteration count, and the
// value/unit measurement pairs (ns/op, B/op, allocs/op, custom units).
type Result struct {
	Package    string             `json:"package,omitempty"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the artifact root.
type Doc struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// parseBenchLine parses one "BenchmarkX-8  1000  29 ns/op  0 B/op" line;
// ok is false for anything that is not a benchmark result.
func parseBenchLine(pkg, line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	r := Result{Package: pkg, Name: fields[0], Metrics: make(map[string]float64)}
	if i := strings.LastIndexByte(r.Name, '-'); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.Procs = r.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}

// parse consumes full `go test -bench` output, tracking the pkg: lines
// that precede each package's benchmark block.
func parse(in io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: []Result{}}
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			if r, ok := parseBenchLine(pkg, line); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// bestMetric reduces a document to its lowest value of one metric per
// benchmark, keyed "package.Name". With -count N each benchmark appears
// N times; the minimum is the least noisy summary of what the code can
// do (for ns/op) or what it needs (for peakRSS-bytes).
func bestMetric(doc *Doc, unit string, filter *regexp.Regexp) map[string]float64 {
	best := make(map[string]float64)
	for _, r := range doc.Benchmarks {
		v, ok := r.Metrics[unit]
		if !ok {
			continue
		}
		key := r.Name
		if r.Package != "" {
			key = r.Package + "." + r.Name
		}
		if filter != nil && !filter.MatchString(key) {
			continue
		}
		if cur, seen := best[key]; !seen || v < cur {
			best[key] = v
		}
	}
	return best
}

// compare gates doc against the baseline document at path: any shared
// benchmark whose best ns/op — or, when both sides report it, best
// peakRSS-bytes — regressed by more than tolerance fails the run.
// Benchmarks present on only one side are skipped (new benchmarks must
// not break CI; retired ones must not pin the baseline forever), and
// the peakRSS gate engages only for benchmarks that measure it, so
// ordinary microbenchmark runs are unaffected.
func compare(doc *Doc, path string, tolerance float64, filter *regexp.Regexp) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var base Doc
	if err := json.NewDecoder(f).Decode(&base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var failed []string
	shared := 0
	for _, unit := range []string{"ns/op", "peakRSS-bytes"} {
		baseV := bestMetric(&base, unit, filter)
		curV := bestMetric(doc, unit, filter)
		keys := make([]string, 0, len(baseV))
		for k := range baseV {
			if _, ok := curV[k]; ok {
				keys = append(keys, k)
			}
		}
		if unit == "ns/op" {
			if len(keys) == 0 {
				return fmt.Errorf("no benchmarks shared between run and baseline %s (filter %v)", path, filter)
			}
			shared = len(keys)
		}
		sort.Strings(keys)
		for _, k := range keys {
			delta := curV[k]/baseV[k] - 1
			verdict := "ok"
			if delta > tolerance {
				verdict = "REGRESSION"
				failed = append(failed, fmt.Sprintf("%s (%s)", k, unit))
			}
			fmt.Fprintf(os.Stderr, "%-60s %14.1f -> %14.1f %-13s %+6.1f%%  %s\n",
				k, baseV[k], curV[k], unit, delta*100, verdict)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d benchmark metric(s) regressed more than %.0f%% vs %s: %s",
			len(failed), tolerance*100, path, strings.Join(failed, ", "))
	}
	fmt.Fprintf(os.Stderr, "%d benchmark(s) within %.0f%% of baseline %s\n",
		shared, tolerance*100, path)
	return nil
}

// gateAllocFree fails when any benchmark matching re reports a nonzero
// allocs/op — or reports none at all (a run without -benchmem would
// otherwise pass the gate vacuously). Matching nothing is an error too:
// a renamed benchmark must not silently retire its gate.
func gateAllocFree(doc *Doc, re *regexp.Regexp) error {
	matched := 0
	var failed []string
	for _, r := range doc.Benchmarks {
		key := r.Name
		if r.Package != "" {
			key = r.Package + "." + r.Name
		}
		if !re.MatchString(key) {
			continue
		}
		matched++
		allocs, ok := r.Metrics["allocs/op"]
		switch {
		case !ok:
			failed = append(failed, key+" (no allocs/op; run with -benchmem)")
		case allocs != 0:
			failed = append(failed, fmt.Sprintf("%s (%g allocs/op)", key, allocs))
		}
	}
	if matched == 0 {
		return fmt.Errorf("-allocfree %v matched no benchmarks", re)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d benchmark(s) broke the zero-alloc promise: %s",
			len(failed), strings.Join(failed, ", "))
	}
	fmt.Fprintf(os.Stderr, "%d benchmark(s) allocation-free (-allocfree %v)\n", matched, re)
	return nil
}

func run(inPath, outPath, baseline string, tolerance float64, filterStr, allocFree string) error {
	in := io.Reader(os.Stdin)
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	doc, err := parse(in)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}
	if outPath != "" || baseline == "" {
		out := io.Writer(os.Stdout)
		if outPath != "" {
			f, err := os.Create(outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	if allocFree != "" {
		re, err := regexp.Compile(allocFree)
		if err != nil {
			return fmt.Errorf("-allocfree: %w", err)
		}
		if err := gateAllocFree(doc, re); err != nil {
			return err
		}
	}
	if baseline != "" {
		var filter *regexp.Regexp
		if filterStr != "" {
			var err error
			if filter, err = regexp.Compile(filterStr); err != nil {
				return fmt.Errorf("-filter: %w", err)
			}
		}
		return compare(doc, baseline, tolerance, filter)
	}
	return nil
}

func main() {
	inPath := flag.String("in", "", "bench text input (default stdin)")
	outPath := flag.String("out", "", "JSON output path (default stdout)")
	baseline := flag.String("baseline", "", "baseline JSON document to compare against; regressions fail the run")
	tolerance := flag.Float64("tolerance", 0.20, "allowed ns/op slowdown vs baseline (0.20 = 20%)")
	filter := flag.String("filter", "", "regexp selecting package.Benchmark names to compare (default: all)")
	allocFree := flag.String("allocfree", "", "regexp of package.Benchmark names that must report allocs/op == 0")
	flag.Parse()
	if err := run(*inPath, *outPath, *baseline, *tolerance, *filter, *allocFree); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
