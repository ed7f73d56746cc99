package tracker

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unclean/internal/atomicfile"
	"unclean/internal/core"
	"unclean/internal/faults"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

func checkpointTracker(t *testing.T) *Tracker {
	t.Helper()
	tr := newTracker(t)
	if err := tr.Observe(core.DimBot, ipset.MustParse("10.1.1.1 10.1.2.1"), epoch); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(core.DimScan, ipset.MustParse("20.2.2.2"), epoch.AddDate(0, 0, 5)); err != nil {
		t.Fatal(err)
	}
	return tr
}

func sameScores(t *testing.T, a, b *Tracker) {
	t.Helper()
	if a.BlockCount() != b.BlockCount() || !a.now.Equal(b.now) {
		t.Fatalf("trackers differ: %d/%v vs %d/%v", a.BlockCount(), a.now, b.BlockCount(), b.now)
	}
	for _, probe := range []string{"10.1.1.7", "10.1.2.7", "20.2.2.7"} {
		p := netaddr.MustParseAddr(probe)
		if math.Abs(a.Score(p).Aggregate-b.Score(p).Aggregate) > 1e-12 {
			t.Fatalf("score of %s differs", probe)
		}
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tracker.ckpt")
	tr := checkpointTracker(t)
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, tr, got)
}

// A v1 checkpoint — written by plain Save with no CRC trailer — must
// load unchanged (byte compatibility on read).
func TestLoadFileV1Compat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tracker.ckpt")
	tr := checkpointTracker(t)
	var buf strings.Builder
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, tr, got)
}

// And the reverse: a v2 file (CRC trailer present) still parses with the
// plain v1 Load, because the trailer is a comment line.
func TestV2CheckpointLoadsWithV1Reader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tracker.ckpt")
	tr := checkpointTracker(t)
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "#crc32:") {
		t.Fatal("v2 checkpoint missing CRC trailer")
	}
	got, err := Load(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("v1 reader rejected v2 checkpoint: %v", err)
	}
	sameScores(t, tr, got)
}

// TestCheckpointCrashAtEveryPoint kills the checkpoint write at each
// stage and asserts recovery always yields the last acknowledged state
// (or the new one, when the crash hit after the rename).
func TestCheckpointCrashAtEveryPoint(t *testing.T) {
	for k := 0; k < 8; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "tracker.ckpt")

		acked := checkpointTracker(t)
		if err := acked.SaveFile(path); err != nil {
			t.Fatal(err)
		}

		// Grow the state, then crash the second checkpoint at stage k.
		next := checkpointTracker(t)
		if err := next.Observe(core.DimPhish, ipset.MustParse("30.3.3.3"), epoch.AddDate(0, 0, 9)); err != nil {
			t.Fatal(err)
		}
		crash := faults.CrashAt(k)
		err := next.saveFileHook(path, crash.Step)
		if crash.Tripped() && !errors.Is(err, faults.ErrCrash) {
			t.Fatalf("k=%d: err = %v, want ErrCrash", k, err)
		}

		got, lerr := LoadFile(path)
		if lerr != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, lerr)
		}
		switch got.BlockCount() {
		case acked.BlockCount():
			sameScores(t, acked, got)
		case next.BlockCount():
			sameScores(t, next, got)
		default:
			t.Fatalf("k=%d: recovered %d blocks — torn state", k, got.BlockCount())
		}
		if err == nil {
			// Acknowledged: the new state must be the one recovered.
			sameScores(t, next, got)
		}
	}
}

// Corrupting the primary checkpoint on disk falls back to .prev.
func TestLoadFileFallsBackOnCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tracker.ckpt")
	acked := checkpointTracker(t)
	if err := acked.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	next := checkpointTracker(t)
	if err := next.Observe(core.DimPhish, ipset.MustParse("30.3.3.3"), epoch.AddDate(0, 0, 9)); err != nil {
		t.Fatal(err)
	}
	if err := next.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the primary: CRC fails, .prev (acked) must win.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, acked, got)

	// Both generations gone: a real error, not a zero tracker.
	os.Remove(path)
	os.Remove(path + atomicfile.PrevSuffix)
	if _, err := LoadFile(path); err == nil {
		t.Fatal("LoadFile with nothing on disk succeeded")
	}
}
