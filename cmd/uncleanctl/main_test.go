package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unclean/internal/obs"
)

func TestConfigFrom(t *testing.T) {
	cfg, err := configFrom(64, 7, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != 1.0/64 || cfg.Seed != 7 || cfg.Draws != 100 || cfg.BenignPerDay != 50 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := configFrom(0.5, 7, 100, 50); err == nil {
		t.Error("scale denominator < 1 accepted")
	}
	if _, err := configFrom(64, 7, 0, 50); err == nil {
		t.Error("zero draws accepted")
	}
}

func TestRunDispatch(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatalf("list: %v", err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Fatalf("help: %v", err)
	}
	if err := run(nil); err == nil {
		t.Error("no command accepted")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"reports"}); err == nil {
		t.Error("reports without -out accepted")
	}
	if err := run([]string{"analyze"}); err == nil {
		t.Error("analyze without -reports accepted")
	}
	if err := run([]string{"inspect"}); err == nil {
		t.Error("inspect without -addr accepted")
	}
	if err := run([]string{"run", "-format", "yaml"}); err == nil {
		t.Error("unknown format accepted")
	}
	// Bad values are refused right after the flags parse, with the flag
	// named, before any world is built.
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"score", "-scale", "512", "-top", "-1"}, "-top"},
		{[]string{"score", "-scale", "512", "-bits", "33"}, "-bits"},
		{[]string{"inspect", "-scale", "512", "-addr", "1.2.3.4", "-bits", "40"}, "-bits"},
		{[]string{"inspect", "-scale", "512", "-addr", "1.2.3.4", "-bits", "-3"}, "-bits"},
		{[]string{"run", "-scale", "512", "-exp", "bogus"}, "-exp"},
		{[]string{"run", "-scale", "512", "-exp", "fig2, bogus"}, "-exp"},
		{[]string{"block", "-scale", "512", "-lo", "40"}, "-lo"},
		{[]string{"block", "-scale", "512", "-lo", "-1"}, "-lo"},
		{[]string{"block", "-scale", "512", "-hi", "16"}, "-hi"},
		{[]string{"block", "-scale", "512", "-hi", "33"}, "-hi"},
		{[]string{"block", "-scale", "512", "-lo", "0", "-hi", "32"}, "-lo"},
		{[]string{"bench", "-scale", "512", "-lo", "40"}, "-lo"},
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%v: err = %v, want one naming %s", c.args, err, c.flag)
		}
	}
}

// TestRunPrintsPeakRSS holds `uncleanctl run` to its last stderr line,
// `peak RSS <N> MB`, the kernel's VmHWM, wherever /proc has it; stdout
// carries only the renders.
func TestRunPrintsPeakRSS(t *testing.T) {
	if _, ok := obs.ReadProcMem(); !ok {
		t.Skip("no /proc/self/status")
	}
	dir := t.TempDir()
	stdout, stderr := os.Stdout, os.Stderr
	defer func() { os.Stdout, os.Stderr = stdout, stderr }()
	var err error
	if os.Stdout, err = os.Create(filepath.Join(dir, "stdout")); err != nil {
		t.Fatal(err)
	}
	if os.Stderr, err = os.Create(filepath.Join(dir, "stderr")); err != nil {
		t.Fatal(err)
	}
	runErr := run([]string{"run", "-exp", "table1", "-scale", "2000", "-seed", "7"})
	os.Stdout.Close()
	os.Stderr.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	out, err := os.ReadFile(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errOut, err := os.ReadFile(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(errOut), "\n"), "\n")
	var mb int
	if n, err := fmt.Sscanf(lines[len(lines)-1], "peak RSS %d MB", &mb); n != 1 || err != nil || mb <= 0 {
		t.Fatalf("last stderr line %q, want peak RSS <N> MB", lines[len(lines)-1])
	}
	if strings.Contains(string(out), "peak RSS") || !strings.HasPrefix(string(out), "==== table1 ====") {
		t.Fatalf("stdout holds more than the render:\n%s", out)
	}
}
