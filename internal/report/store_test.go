package report

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/retry"
)

func TestSaveLoadDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	inv := &Inventory{}
	inv.Add(sampleReport())
	inv.Add(newReport("scan", Observed, ClassScanning, "2006-10-01", "2006-10-14", "m",
		ipset.MustParse("7.7.7.7 8.8.8.8")))
	if err := inv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Reports) != 2 {
		t.Fatalf("loaded %d reports", len(got.Reports))
	}
	for _, want := range inv.Reports {
		g := got.Get(want.Tag)
		if g == nil {
			t.Fatalf("missing %q", want.Tag)
		}
		if !g.Addrs.Equal(want.Addrs) || g.Class != want.Class || g.Type != want.Type {
			t.Fatalf("report %q mismatch", want.Tag)
		}
	}
}

func TestSaveDirRejectsBadTag(t *testing.T) {
	inv := &Inventory{}
	r := sampleReport()
	r.Tag = "../evil"
	inv.Add(r)
	if err := inv.SaveDir(t.TempDir()); err == nil {
		t.Fatal("path-traversal tag accepted")
	}
	inv2 := &Inventory{}
	r2 := sampleReport()
	r2.Tag = ""
	inv2.Add(r2)
	if err := inv2.SaveDir(t.TempDir()); err == nil {
		t.Fatal("empty tag accepted")
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing dir accepted")
	}
	empty := t.TempDir()
	if _, err := LoadDir(empty); err == nil {
		t.Error("empty dir accepted")
	}
	// Corrupt file.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "x.report"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(bad); err == nil {
		t.Error("corrupt file accepted")
	}
	// Duplicate tags across files.
	dup := t.TempDir()
	inv := &Inventory{}
	inv.Add(sampleReport())
	if err := inv.SaveDir(dup); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(dup, "bot.report"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dup, "bot2.report"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dup); err == nil {
		t.Error("duplicate tag accepted")
	}
	// Non-report files are ignored.
	ok := t.TempDir()
	if err := inv.SaveDir(ok); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ok, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDir(ok)
	if err != nil || len(got.Reports) != 1 {
		t.Fatalf("LoadDir with stray file: %v, %d reports", err, len(got.Reports))
	}
}

// SaveDir now writes atomically with a CRC trailer; LoadDir must verify
// it and reject bit rot instead of half-parsing.
func TestLoadDirDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	inv := &Inventory{}
	inv.Add(sampleReport())
	if err := inv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "bot"+Ext)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "#crc32:") {
		t.Fatal("report file missing CRC trailer")
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("corrupted report accepted")
	}
}

// LoadDirRetry rides out a transiently broken feed directory: the
// canonical case is a report observed mid-write by a non-atomic
// producer, repaired before the retries run out.
func TestLoadDirRetryHeals(t *testing.T) {
	dir := t.TempDir()
	inv := &Inventory{}
	inv.Add(sampleReport())
	torn := filepath.Join(dir, "torn"+Ext)
	if err := inv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, []byte("# unclean report v1\ntag: torn\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	p := retry.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			// "Repair" the feed after two failed attempts.
			if attempts++; attempts >= 2 {
				os.Remove(torn)
			}
			return nil
		}}
	got, err := LoadDirRetry(context.Background(), p, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Reports) != 1 || got.Get("bot") == nil {
		t.Fatalf("recovered inventory wrong: %d reports", len(got.Reports))
	}
	// A permanently broken dir still errors out after the attempts.
	if _, err := LoadDirRetry(context.Background(), retry.Policy{MaxAttempts: 2,
		Sleep: func(context.Context, time.Duration) error { return nil }},
		filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing dir accepted")
	}
}
