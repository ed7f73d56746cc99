package feedmesh

import (
	"context"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/report"
	"unclean/internal/tracker"
)

// testFold lists a /24 from eight reported addresses of one dimension
// (score 1-e^-2 ≈ 0.86).
var testFold = Fold{HalfLife: 42 * 24 * time.Hour, Threshold: 0.5}

// saveReport writes one report of class c over addrs into dir as
// tag.report, replacing an earlier report of that tag.
func saveReport(t *testing.T, dir, tag string, c report.Class, addrs string) {
	t.Helper()
	inv := &report.Inventory{}
	inv.Add(&report.Report{Tag: tag, Type: report.Observed, Class: c, Method: "test",
		ValidFrom: time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC), ValidTo: time.Date(2006, 10, 14, 0, 0, 0, 0, time.UTC),
		Addrs: ipset.MustParse(addrs)})
	if err := inv.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
}

const eightIn1011 = "10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4 10.1.1.5 10.1.1.6 10.1.1.7 10.1.1.8"

// reasonOf returns the reason the mesh's list gives for addr.
func reasonOf(t *testing.T, m *Mesh, addr string) string {
	t.Helper()
	list := m.List()
	if list == nil {
		t.Fatal("no merged list")
	}
	e, ok := list.Lookup(netaddr.MustParseAddr(addr))
	if !ok {
		t.Fatalf("%s not listed", addr)
	}
	return e.Reason
}

// A directory feed lists the tracker's /24s under their dominant
// dimension, and a change of dimension alone, with the block set
// unchanged, swaps the served list.
func TestDirSourceReasonOnlyChangeSwaps(t *testing.T) {
	dir := t.TempDir()
	saveReport(t, dir, "r", report.ClassBots, eightIn1011)
	clk := newClock()
	m, err := New(testConfig(clk), NewDirSource("d", dir, testFold, ""))
	if err != nil {
		t.Fatal(err)
	}
	if swapped := tick(t, m, clk); !swapped || m.Status().MergedBlocks != 1 {
		t.Fatalf("first round swapped=%v with %d blocks, want one block swapped in", swapped, m.Status().MergedBlocks)
	}
	if got := reasonOf(t, m, "10.1.1.9"); got != "bot" {
		t.Fatalf("reason %q, want bot", got)
	}
	if tick(t, m, clk) {
		t.Fatal("an unchanged directory swapped the list")
	}

	saveReport(t, dir, "r", report.ClassScanning, eightIn1011)
	if swapped := tick(t, m, clk); !swapped || m.Status().MergedBlocks != 1 {
		t.Fatalf("round after the dimension change swapped=%v with %d blocks, want one block swapped", swapped, m.Status().MergedBlocks)
	}
	if got := reasonOf(t, m, "10.1.1.9"); got != "scan" {
		t.Fatalf("reason %q after the change, want scan", got)
	}
}

// Two feeds that list one block under different reasons merge it under
// the heavier feed's reason; a block no feed names keeps "feedmesh".
func TestMergeTakesHeaviestReason(t *testing.T) {
	clk := newClock()
	blocks := ipset.MustParse("60.0.1.0 60.0.2.0")
	a := &fakeFeed{name: "a", addrs: blocks}
	b := &fakeFeed{name: "b", addrs: blocks}
	m, err := New(testConfig(clk), reasonFeed{a, map[netaddr.Addr]string{netaddr.MustParseAddr("60.0.1.0"): "spam"}},
		reasonFeed{b, map[netaddr.Addr]string{netaddr.MustParseAddr("60.0.1.0"): "bot"}})
	if err != nil {
		t.Fatal(err)
	}
	tick(t, m, clk)
	// Equal weights: the first feed in source order wins.
	if got := reasonOf(t, m, "60.0.1.9"); got != "spam" {
		t.Fatalf("tied reason %q, want the first feed's spam", got)
	}
	if got := reasonOf(t, m, "60.0.2.9"); got != "feedmesh" {
		t.Fatalf("unnamed block reason %q, want feedmesh", got)
	}
	// a stops loading: its quality, and so its weight, drops below b's.
	a.err = os.ErrNotExist
	tick(t, m, clk)
	if got := reasonOf(t, m, "60.0.1.9"); got != "bot" {
		t.Fatalf("reason %q once b outweighs a, want bot", got)
	}
}

// reasonFeed adds fixed reasons to a fake feed's batches.
type reasonFeed struct {
	*fakeFeed
	reasons map[netaddr.Addr]string
}

func (f reasonFeed) Load(ctx context.Context) (Batch, error) {
	b, err := f.fakeFeed.Load(ctx)
	b.Reasons = f.reasons
	return b, err
}

// With a checkpoint the directory source saves its tracker after a load
// and, restarted over a dead directory, serves the checkpoint once: a
// later failure is the mesh's to handle.
func TestDirSourceCheckpoint(t *testing.T) {
	dir := t.TempDir()
	saveReport(t, dir, "bot", report.ClassBots, eightIn1011)
	saveReport(t, dir, "spam", report.ClassSpamming,
		"10.2.2.1 10.2.2.2 10.2.2.3 10.2.2.4 10.2.2.5 10.2.2.6 10.2.2.7 10.2.2.8")
	ckpt := filepath.Join(t.TempDir(), "tracker.ckpt")
	ctx := context.Background()
	good, err := NewDirSource("d", dir, testFold, ckpt).Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := tracker.LoadFile(ckpt); err != nil || tr.BlockCount() != 2 {
		t.Fatalf("checkpoint after a load: %v", err)
	}
	want := map[netaddr.Addr]string{
		netaddr.MustParseAddr("10.1.1.0"): "bot",
		netaddr.MustParseAddr("10.2.2.0"): "spam",
	}
	if !maps.Equal(good.Reasons, want) || good.Addrs.Len() != 2 {
		t.Fatalf("batch %v reasons %v, want %v", good.Addrs, good.Reasons, want)
	}

	dead := t.TempDir()
	if err := os.WriteFile(filepath.Join(dead, "junk"+report.Ext), []byte("not a report"), 0o644); err != nil {
		t.Fatal(err)
	}
	restarted := NewDirSource("d", dead, testFold, ckpt)
	got, err := restarted.Load(ctx)
	if err != nil {
		t.Fatalf("first load over a dead directory with a checkpoint: %v", err)
	}
	if !got.Addrs.Equal(good.Addrs) || !maps.Equal(got.Reasons, good.Reasons) {
		t.Fatalf("recovered batch %v %v, want %v %v", got.Addrs, got.Reasons, good.Addrs, good.Reasons)
	}
	if _, err := restarted.Load(ctx); err == nil {
		t.Fatal("a later load over the dead directory recovered again")
	}
	if _, err := NewDirSource("d", dead, testFold, "").Load(ctx); err == nil {
		t.Fatal("a dead directory without a checkpoint loaded")
	}
}
