package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: unclean/internal/ipset
cpu: AMD EPYC 7B13
BenchmarkSampleBlocks-4   	   39122	     29012 ns/op	       0 B/op	       0 allocs/op
BenchmarkSortRadix-4      	    5000	    240111 ns/op
PASS
ok  	unclean/internal/ipset	2.301s
pkg: unclean/internal/dnsbl
BenchmarkServeOne-4       	  850000	      1405 ns/op	      12 B/op	       1 allocs/op
PASS
ok  	unclean/internal/dnsbl	1.120s
`

func TestParseBenchOutput(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.CPU != "AMD EPYC 7B13" {
		t.Errorf("header = %q/%q/%q", doc.Goos, doc.Goarch, doc.CPU)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	sb := doc.Benchmarks[0]
	if sb.Name != "BenchmarkSampleBlocks" || sb.Procs != 4 ||
		sb.Package != "unclean/internal/ipset" || sb.Iterations != 39122 {
		t.Errorf("first result wrong: %+v", sb)
	}
	if sb.Metrics["ns/op"] != 29012 || sb.Metrics["allocs/op"] != 0 {
		t.Errorf("first metrics wrong: %v", sb.Metrics)
	}
	if allocs, ok := sb.Metrics["allocs/op"]; !ok || allocs != 0 {
		t.Errorf("allocs/op missing or nonzero: %v ok=%v", allocs, ok)
	}
	last := doc.Benchmarks[2]
	if last.Package != "unclean/internal/dnsbl" || last.Metrics["B/op"] != 12 {
		t.Errorf("pkg tracking across blocks broken: %+v", last)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	doc, err := parse(strings.NewReader("PASS\nok \tx\t1s\nnot a bench\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("parsed noise as results: %+v", doc.Benchmarks)
	}
}

func writeBaseline(t *testing.T, doc *Doc) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchDoc(ns map[string]float64) *Doc {
	d := &Doc{}
	for name, v := range ns {
		d.Benchmarks = append(d.Benchmarks, Result{
			Package: "unclean/internal/blocklist", Name: name,
			Iterations: 1, Metrics: map[string]float64{"ns/op": v},
		})
	}
	return d
}

func TestBestNsKeepsMinimumAcrossCounts(t *testing.T) {
	d := &Doc{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkX", Metrics: map[string]float64{"ns/op": 120}},
		{Package: "p", Name: "BenchmarkX", Metrics: map[string]float64{"ns/op": 100}},
		{Package: "p", Name: "BenchmarkX", Metrics: map[string]float64{"ns/op": 140}},
	}}
	best := bestMetric(d, "ns/op", nil)
	if best["p.BenchmarkX"] != 100 {
		t.Fatalf("best = %v, want 100", best["p.BenchmarkX"])
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := writeBaseline(t, benchDoc(map[string]float64{"BenchmarkMatcherLookup": 100}))
	cur := benchDoc(map[string]float64{"BenchmarkMatcherLookup": 115})
	if err := compare(cur, base, 0.20, nil); err != nil {
		t.Fatalf("15%% slowdown under 20%% tolerance should pass: %v", err)
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, benchDoc(map[string]float64{"BenchmarkMatcherLookup": 100}))
	cur := benchDoc(map[string]float64{"BenchmarkMatcherLookup": 130})
	err := compare(cur, base, 0.20, nil)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkMatcherLookup") {
		t.Fatalf("30%% slowdown should fail naming the benchmark, got %v", err)
	}
}

func TestCompareFilterSkipsRegression(t *testing.T) {
	base := writeBaseline(t, benchDoc(map[string]float64{
		"BenchmarkMatcherLookup": 100, "BenchmarkTrieInsert": 100,
	}))
	cur := benchDoc(map[string]float64{
		"BenchmarkMatcherLookup": 90, "BenchmarkTrieInsert": 500,
	})
	re := regexp.MustCompile(`Lookup`)
	if err := compare(cur, base, 0.20, re); err != nil {
		t.Fatalf("regression outside filter should not fail: %v", err)
	}
}

func TestCompareNoSharedBenchmarks(t *testing.T) {
	base := writeBaseline(t, benchDoc(map[string]float64{"BenchmarkOld": 100}))
	cur := benchDoc(map[string]float64{"BenchmarkNew": 100})
	if err := compare(cur, base, 0.20, nil); err == nil {
		t.Fatal("disjoint run/baseline should fail loudly, not silently pass")
	}
}

func rssDoc(ns, rss float64) *Doc {
	return &Doc{Benchmarks: []Result{{
		Package: "unclean/bench", Name: "BenchmarkPaperPipeline/scale=8",
		Iterations: 1,
		Metrics:    map[string]float64{"ns/op": ns, "peakRSS-bytes": rss},
	}}}
}

func TestComparePeakRSSWithinTolerance(t *testing.T) {
	base := writeBaseline(t, rssDoc(100, 1<<30))
	if err := compare(rssDoc(100, 1.1*(1<<30)), base, 0.20, nil); err != nil {
		t.Fatalf("10%% RSS growth under 20%% tolerance should pass: %v", err)
	}
}

func TestComparePeakRSSRegressionFails(t *testing.T) {
	base := writeBaseline(t, rssDoc(100, 1<<30))
	err := compare(rssDoc(100, 2<<30), base, 0.20, nil)
	if err == nil || !strings.Contains(err.Error(), "peakRSS-bytes") {
		t.Fatalf("doubled peak RSS should fail naming the metric, got %v", err)
	}
}

func TestComparePeakRSSOptional(t *testing.T) {
	// A baseline without peakRSS-bytes must not block a run that has it
	// (and vice versa): the RSS gate engages only where both sides measure.
	base := writeBaseline(t, benchDoc(map[string]float64{"BenchmarkPaperPipeline/scale=8": 100}))
	cur := rssDoc(105, 4<<30)
	cur.Benchmarks[0].Package = "unclean/internal/blocklist"
	if err := compare(cur, base, 0.20, nil); err != nil {
		t.Fatalf("RSS on one side only should not gate: %v", err)
	}
}

func allocDoc(allocs map[string]float64) *Doc {
	d := &Doc{}
	for name, v := range allocs {
		d.Benchmarks = append(d.Benchmarks, Result{
			Package: "unclean/internal/dnsbl", Name: name,
			Iterations: 1,
			Metrics:    map[string]float64{"ns/op": 100, "allocs/op": v},
		})
	}
	return d
}

func TestAllocFreeGatePasses(t *testing.T) {
	d := allocDoc(map[string]float64{"BenchmarkAnalyticsTap": 0, "BenchmarkServeSharded": 0})
	if err := gateAllocFree(d, regexp.MustCompile(`AnalyticsTap|ServeSharded`)); err != nil {
		t.Fatalf("zero-alloc run should pass: %v", err)
	}
}

func TestAllocFreeGateFailsOnAllocation(t *testing.T) {
	d := allocDoc(map[string]float64{"BenchmarkAnalyticsTap": 2})
	err := gateAllocFree(d, regexp.MustCompile(`AnalyticsTap`))
	if err == nil || !strings.Contains(err.Error(), "BenchmarkAnalyticsTap") {
		t.Fatalf("2 allocs/op should fail naming the benchmark, got %v", err)
	}
}

func TestAllocFreeGateFailsWithoutBenchmem(t *testing.T) {
	d := benchDoc(map[string]float64{"BenchmarkMatcherLookup": 100}) // ns/op only
	err := gateAllocFree(d, regexp.MustCompile(`Lookup`))
	if err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("missing allocs/op must fail pointing at -benchmem, got %v", err)
	}
}

func TestAllocFreeGateFailsOnNoMatch(t *testing.T) {
	d := allocDoc(map[string]float64{"BenchmarkAnalyticsTap": 0})
	if err := gateAllocFree(d, regexp.MustCompile(`Renamed`)); err == nil {
		t.Fatal("a gate that matches nothing must fail loudly, not pass vacuously")
	}
}
