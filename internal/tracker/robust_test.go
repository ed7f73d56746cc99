package tracker

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"unclean/internal/core"
	"unclean/internal/ipset"
)

// Load parses checkpoints from disk; arbitrary input must yield an error
// or a valid tracker, never a panic (mirrors the report/dnsbl/netflow
// robustness suites).
func TestLoadNeverPanics(t *testing.T) {
	f := func(data string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Load panicked on %q: %v", data, r)
			}
		}()
		tr, err := Load(strings.NewReader(data))
		if err == nil && tr == nil {
			t.Fatalf("Load(%q) returned neither tracker nor error", data)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// sampleCheckpoint renders a small valid checkpoint to mutate.
func sampleCheckpoint(t *testing.T) string {
	t.Helper()
	tr := newTracker(t)
	if err := tr.Observe(core.DimBot, ipset.MustParse("10.1.1.1 10.1.2.1"), epoch); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(core.DimSpam, ipset.MustParse("20.2.2.2"), epoch.AddDate(0, 0, 3)); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// Line-level mutations of a valid checkpoint exercise the header and
// block parsers past the magic check: every mutation must produce an
// error or a tracker, never a panic.
func TestLoadMutatedCheckpointsNeverPanic(t *testing.T) {
	lines := strings.Split(sampleCheckpoint(t), "\n")
	junk := []string{
		"", ":", "x: y", "bits: NaN", "now: never",
		"10.1.1.0", "10.1.1.0 x y z w", "999.1.2.3 2006-04-01T00:00:00Z 1,0,0,0",
		"10.1.1.0 2006-04-01T00:00:00Z 1e999,0,0,0",
		"10.1.1.0 2006-04-01T00:00:00Z ,,,",
		"\x00\xff\xfe", strings.Repeat("9", 300),
	}
	for i := range lines {
		for _, j := range junk {
			mutated := append([]string{}, lines...)
			mutated[i] = j
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Load panicked with line %d = %q: %v", i, j, r)
					}
				}()
				_, _ = Load(strings.NewReader(strings.Join(mutated, "\n")))
			}()
		}
	}
}

// Truncations at every byte boundary: a torn checkpoint must never
// panic, and whenever it parses it must be internally consistent.
func TestLoadTruncatedCheckpointsNeverPanic(t *testing.T) {
	full := sampleCheckpoint(t)
	for cut := 0; cut <= len(full); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked on %d-byte truncation: %v", cut, r)
				}
			}()
			tr, err := Load(strings.NewReader(full[:cut]))
			if err == nil {
				if tr == nil {
					t.Fatalf("cut=%d: nil tracker without error", cut)
				}
				// A parsed truncation must still be a usable tracker.
				if err := tr.Observe(core.DimBot, ipset.MustParse("9.9.9.9"), tr.now); err != nil {
					t.Fatalf("cut=%d: parsed tracker unusable: %v", cut, err)
				}
			}
		}()
	}
}

// The line cap is explicit: an over-long line errors with its line
// number and the limit, instead of the scanner's bare failure.
func TestLoadOverlongLineReported(t *testing.T) {
	long := sampleCheckpoint(t) + "# " + strings.Repeat("x", MaxLineBytes+1) + "\n"
	_, err := Load(strings.NewReader(long))
	if err == nil {
		t.Fatal("over-long line accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line ") || !strings.Contains(msg, "limit") {
		t.Fatalf("overflow error lacks line number or limit: %v", err)
	}
	// A long-but-legal line (inside the cap) still parses: the cap is
	// far above anything Save emits.
	padded := strings.Replace(sampleCheckpoint(t), "blocks:\n",
		"# "+strings.Repeat("y", 100_000)+"\nblocks:\n", 1)
	if _, err := Load(strings.NewReader(padded)); err != nil {
		t.Fatalf("100KB comment line rejected: %v", err)
	}
}

// FuzzLoad holds the checkpoint reader to its contract on arbitrary
// bytes: it returns an error, or a tracker whose counts are all finite
// and non-negative and whose Save output loads and saves back to the
// same bytes. The seed corpus in testdata holds saved checkpoints and
// the malformed and non-finite cases TestLoadRejectsGarbage rejects.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for base, b := range tr.blocks {
			for d, c := range b.counts {
				if !(c >= 0) || math.IsInf(c, 0) {
					t.Fatalf("block %s dimension %d loaded count %v", base, d, c)
				}
			}
		}
		var saved bytes.Buffer
		if err := tr.Save(&saved); err != nil {
			t.Fatal(err)
		}
		again, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("saved checkpoint does not load: %v\n%s", err, saved.Bytes())
		}
		var resaved bytes.Buffer
		if err := again.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("checkpoint changed across a load:\n%s\nvs\n%s", saved.Bytes(), resaved.Bytes())
		}
	})
}
