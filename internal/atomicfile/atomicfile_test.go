package atomicfile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"unclean/internal/faults"
)

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.txt")
	payload := []byte("# unclean tracker v1\nbits: 24\nblocks:\n10.0.0.0 x 1,2,3,4\n")
	if err := WriteFile(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	// The on-disk form carries the trailer and remains line-parseable.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw[len(payload):]), trailerPrefix) {
		t.Fatalf("no trailer after payload: %q", raw[len(payload):])
	}
}

func TestReadFileV1Compat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.txt")
	payload := []byte("legacy checkpoint without trailer\n")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("v1 payload mangled: %q", got)
	}
}

func TestReadFileDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.txt")
	payload := []byte("line one\nline two\n")
	if err := WriteFile(path, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in place: CRC must catch it.
	raw[3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted read = %v, want ErrCorrupt", err)
	}
	// Truncated payload (torn write that kept the trailer line intact is
	// impossible, but a truncated file whose last line happens to be a
	// stale trailer must also fail the length check).
	if err := os.WriteFile(path, append([]byte("line one\n"), []byte(Trailer(payload))...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated read = %v, want ErrCorrupt", err)
	}
}

func TestVerifyMalformedTrailers(t *testing.T) {
	cases := []string{
		"payload\n" + trailerPrefix + "\n",
		"payload\n" + trailerPrefix + "zzzzzzzz 8\n",
		"payload\n" + trailerPrefix + "00000000 notanint\n",
		"payload\n" + trailerPrefix + "00000000 99999\n",
	}
	for _, c := range cases {
		if _, err := Verify([]byte(c), "t"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Verify(%q) = %v, want ErrCorrupt", c, err)
		}
	}
	// No trailer at all passes through.
	if got, err := Verify([]byte("plain\n"), "t"); err != nil || string(got) != "plain\n" {
		t.Errorf("plain Verify = %q, %v", got, err)
	}
	// Empty file is fine (v1 semantics: callers see their own parse error).
	if got, err := Verify(nil, "t"); err != nil || len(got) != 0 {
		t.Errorf("empty Verify = %q, %v", got, err)
	}
}

func TestCheckpointRotationAndFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := WriteCheckpointHook(path, []byte("gen1\n"), nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpointHook(path, []byte("gen2\n"), nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil || string(got) != "gen2\n" {
		t.Fatalf("load = %q, %v", got, err)
	}
	prev, err := ReadFile(path + PrevSuffix)
	if err != nil || string(prev) != "gen1\n" {
		t.Fatalf("prev = %q, %v", prev, err)
	}
	// Corrupt the current generation: recovery falls back to .prev.
	if err := os.WriteFile(path, []byte("garbage\n"+trailerPrefix+"00000000 8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpoint(path)
	if err != nil || string(got) != "gen1\n" {
		t.Fatalf("fallback load = %q, %v", got, err)
	}
	// Both gone: the primary error surfaces.
	os.Remove(path)
	os.Remove(path + PrevSuffix)
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("load with no checkpoints succeeded")
	}
}

// TestCrashAtEveryStage is the acceptance criterion in miniature: a kill
// at every stage of a checkpoint write must leave the newest valid
// checkpoint equal to either the old acknowledged state or the complete
// new state.
func TestCrashAtEveryStage(t *testing.T) {
	const stages = 8 // rotate + temp/data/trailer/sync/rename/dirsync, +1 spare
	for k := 0; k < stages; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt")
		if err := WriteCheckpointHook(path, []byte("old acknowledged\n"), nil); err != nil {
			t.Fatal(err)
		}
		crash := faults.CrashAt(k)
		err := WriteCheckpointHook(path, []byte("new state\n"), crash.Step)
		if !crash.Tripped() {
			// Fewer stages than k: the write completed; must read as new.
			if err != nil {
				t.Fatalf("k=%d: untripped write failed: %v", k, err)
			}
		} else if !errors.Is(err, faults.ErrCrash) {
			t.Fatalf("k=%d: err = %v, want ErrCrash", k, err)
		}
		got, lerr := LoadCheckpoint(path)
		if lerr != nil {
			t.Fatalf("k=%d: recovery failed: %v", k, lerr)
		}
		if s := string(got); s != "old acknowledged\n" && s != "new state\n" {
			t.Fatalf("k=%d: recovered %q — torn state", k, s)
		}
		if err == nil && string(got) != "new state\n" {
			t.Fatalf("k=%d: acknowledged write not visible", k)
		}
	}
}

// A crash during the very first checkpoint write (no previous
// generation) must at worst leave "no checkpoint", never a torn file
// that parses.
func TestCrashOnFirstWrite(t *testing.T) {
	for k := 0; k < 7; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt")
		crash := faults.CrashAt(k)
		err := WriteCheckpointHook(path, []byte("first\n"), crash.Step)
		got, lerr := LoadCheckpoint(path)
		switch {
		case lerr == nil:
			if string(got) != "first\n" {
				t.Fatalf("k=%d: recovered torn %q", k, got)
			}
		case err == nil:
			t.Fatalf("k=%d: acknowledged but unrecoverable: %v", k, lerr)
		}
	}
}

func TestWriteFileTornTempInvisible(t *testing.T) {
	// A crash mid-payload (CrashWriter semantics) happens in the temp
	// file; the destination must be untouched.
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	if err := WriteFile(path, []byte("good\n")); err != nil {
		t.Fatal(err)
	}
	crash := faults.CrashAt(1) // dies after StageTemp, i.e. mid-write
	err := WriteFileHook(path, []byte("half-written payload\n"), crash.Step)
	if !errors.Is(err, faults.ErrCrash) {
		t.Fatalf("err = %v", err)
	}
	got, err := ReadFile(path)
	if err != nil || string(got) != "good\n" {
		t.Fatalf("destination disturbed: %q, %v", got, err)
	}
}
