package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

func writeArchive(t *testing.T) string {
	t.Helper()
	boot := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	path := filepath.Join(t.TempDir(), "flows.nf5")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := netflow.NewWriter(f, boot)
	mk := func(src string, dport uint16, payload bool) netflow.Record {
		r := netflow.Record{
			SrcAddr: netaddr.MustParseAddr(src),
			DstAddr: netaddr.MustParseAddr("30.0.0.1"),
			First:   netflow.TimeOf(boot.Add(time.Minute)), Last: netflow.TimeOf(boot.Add(2 * time.Minute)),
			SrcPort: 4000, DstPort: dport, Proto: netflow.ProtoTCP,
		}
		if payload {
			r.Packets, r.Octets = 10, 3000
			r.TCPFlags = netflow.FlagSYN | netflow.FlagACK | netflow.FlagPSH
		} else {
			r.Packets, r.Octets = 2, 96
			r.TCPFlags = netflow.FlagSYN
		}
		return r
	}
	records := []netflow.Record{
		mk("10.1.1.1", 80, true),
		mk("10.1.1.2", 445, false),
		mk("99.9.9.9", 25, true),
	}
	for _, r := range records {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFlowcatDumpAll(t *testing.T) {
	path := writeArchive(t)
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(out.String(), "\n")
	if lines != 3 {
		t.Fatalf("dumped %d lines, want 3:\n%s", lines, out.String())
	}
}

func TestFlowcatSrcFilter(t *testing.T) {
	path := writeArchive(t)
	var out strings.Builder
	if err := run([]string{"-src", "10.1.1.0/24", path}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n"); got != 2 {
		t.Fatalf("src filter matched %d, want 2", got)
	}
	if strings.Contains(out.String(), "99.9.9.9") {
		t.Fatal("filter leaked out-of-block source")
	}
}

func TestFlowcatPayloadCount(t *testing.T) {
	path := writeArchive(t)
	var out strings.Builder
	if err := run([]string{"-payload", "-count", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "2" {
		t.Fatalf("count = %q, want 2", out.String())
	}
}

func TestFlowcatCombinedFilters(t *testing.T) {
	path := writeArchive(t)
	var out strings.Builder
	if err := run([]string{"-dst", "30.0.0.0/8", "-proto", "6", "-src", "99.9.9.9/32", "-count", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "1" {
		t.Fatalf("count = %q, want 1", out.String())
	}
}

func TestFlowcatErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no files accepted")
	}
	if err := run([]string{"-src", "garbage", "x"}, &out); err == nil {
		t.Error("bad CIDR accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.nf5")}, &out); err == nil {
		t.Error("missing file accepted")
	}
	// Truncated archive.
	path := writeArchive(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "trunc.nf5")
	if err := os.WriteFile(bad, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Error("truncated archive accepted")
	}
}

func writeBlocklist(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFlowcatBlockFilter(t *testing.T) {
	archive := writeArchive(t)
	rules := writeBlocklist(t, "# bots seen in october\n10.1.1.0/24 bot\n")
	var out strings.Builder
	if err := run([]string{"-block", rules, archive}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "10.1.1.1") || !strings.Contains(got, "10.1.1.2") {
		t.Fatalf("blocked sources missing from output:\n%s", got)
	}
	if strings.Contains(got, "99.9.9.9") {
		t.Fatalf("unblocked source leaked into -block output:\n%s", got)
	}
}

func TestFlowcatEval(t *testing.T) {
	archive := writeArchive(t)
	rules := writeBlocklist(t, "10.1.1.0/24 bot\n")
	var out strings.Builder
	if err := run([]string{"-block", rules, "-eval", archive}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "flows: blocked=2 passed=1 payload-blocked=1") {
		t.Fatalf("unexpected eval summary:\n%s", got)
	}
	if !strings.Contains(got, "sources: blocked=2 passed=1") {
		t.Fatalf("unexpected source summary:\n%s", got)
	}
}

func TestFlowcatEvalRequiresBlock(t *testing.T) {
	archive := writeArchive(t)
	var out strings.Builder
	if err := run([]string{"-eval", archive}, &out); err == nil {
		t.Fatal("-eval without -block accepted")
	}
}

func TestFlowcatBadBlocklist(t *testing.T) {
	archive := writeArchive(t)
	rules := writeBlocklist(t, "not-a-cidr\n")
	var out strings.Builder
	if err := run([]string{"-block", rules, archive}, &out); err == nil {
		t.Fatal("malformed blocklist accepted")
	}
}
