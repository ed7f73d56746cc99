package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBenchOutputs runs bench at a small scale and checks both of its
// outputs: stdout holds only the benchjson header and the five result
// lines, and stderr ends with the stage table, which splits the world
// build into its stages.
func TestBenchOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("world generation in -short mode")
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "1000", "-seed", "7", "-benign", "15", "-progress", "0", "-dir", t.TempDir()}
	if err := runBench(args, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	wantPrefix := []string{"goos: ", "goarch: ", "pkg: unclean/bench",
		"BenchmarkPaperWorld/scale=1000 \t1\t",
		"BenchmarkPaperControl/scale=1000 \t1\t",
		"BenchmarkPaperMapped/scale=1000 \t1\t",
		"BenchmarkPaperSweep/scale=1000 \t1\t",
		"BenchmarkPaperPipeline/scale=1000 \t1\t",
	}
	if len(lines) != len(wantPrefix) {
		t.Fatalf("stdout has %d lines, want %d:\n%s", len(lines), len(wantPrefix), stdout.String())
	}
	for i, p := range wantPrefix {
		if !strings.HasPrefix(lines[i], p) {
			t.Errorf("stdout line %d = %q, want prefix %q", i, lines[i], p)
		}
		if strings.HasPrefix(p, "Benchmark") && !strings.Contains(lines[i], " ns/op") {
			t.Errorf("stdout line %d = %q has no ns/op", i, lines[i])
		}
	}

	_, table, ok := strings.Cut(stderr.String(), "\nstage timings:\n")
	if !ok {
		t.Fatalf("stderr has no stage table:\n%s", stderr.String())
	}
	stages := map[string]bool{}
	for _, row := range strings.Split(strings.TrimSuffix(table, "\n"), "\n")[1:] {
		stages[strings.Fields(row)[0]] = true
	}
	for _, name := range []string{
		"bench/world", "bench/control", "bench/mapped", "bench/sweep",
		"world/model", "world/epidemic", "world/episode-index",
		"world/phish", "world/bot-test", "world/campaigns",
	} {
		if !stages[name] {
			t.Errorf("stage table has no %s row:\n%s", name, table)
		}
	}
}
