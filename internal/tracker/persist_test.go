package tracker

import (
	"math"
	"strings"
	"testing"

	"unclean/internal/core"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(core.DimBot, ipset.MustParse("10.1.1.1 10.1.1.2"), epoch)
	tr.Observe(core.DimPhish, ipset.MustParse("20.2.2.2"), epoch.AddDate(0, 0, 10))
	tr.AdvanceTo(epoch.AddDate(0, 0, 20))

	var buf strings.Builder
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.cfg != tr.cfg {
		t.Fatalf("config mismatch: %+v vs %+v", got.cfg, tr.cfg)
	}
	if !got.now.Equal(tr.now) {
		t.Fatalf("clock mismatch: %v vs %v", got.now, tr.now)
	}
	if got.BlockCount() != tr.BlockCount() {
		t.Fatalf("blocks: %d vs %d", got.BlockCount(), tr.BlockCount())
	}
	for _, probe := range []string{"10.1.1.200", "20.2.2.9", "99.9.9.9"} {
		a := netaddr.MustParseAddr(probe)
		want, have := tr.Score(a), got.Score(a)
		if math.Abs(want.Aggregate-have.Aggregate) > 1e-12 {
			t.Errorf("score of %s: %v vs %v", probe, want.Aggregate, have.Aggregate)
		}
	}
	// The restored tracker keeps working.
	if err := got.Observe(core.DimScan, ipset.MustParse("10.1.1.9"), got.now); err != nil {
		t.Fatal(err)
	}
	if got.Score(netaddr.MustParseAddr("10.1.1.9")).ByDim[core.DimScan] == 0 {
		t.Fatal("restored tracker ignores new evidence")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(core.DimBot, ipset.MustParse("10.1.1.1"), epoch)
	var buf strings.Builder
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := map[string]string{
		"empty":         "",
		"bad magic":     strings.Replace(good, "v1", "v9", 1),
		"bad header":    strings.Replace(good, "bits: 24", "bits: many", 1),
		"unknown key":   strings.Replace(good, "tau:", "mystery:", 1),
		"no blocks":     persistMagic + "\nbits: 24\nhalflife: 1h\ntau: 4\nnow: 2006-04-01T00:00:00Z\n",
		"bad counts":    strings.Replace(good, "1,0,0,0", "1,0,0", 1),
		"neg count":     strings.Replace(good, "1,0,0,0", "-1,0,0,0", 1),
		"nan count":     strings.Replace(good, "1,0,0,0", "NaN,0,0,0", 1),
		"inf count":     strings.Replace(good, "1,0,0,0", "1,+Inf,0,0", 1),
		"nan tau":       strings.Replace(good, "tau: 4", "tau: NaN", 1),
		"inf tau":       strings.Replace(good, "tau: 4", "tau: +Inf", 1),
		"now past 9999": strings.Replace(good, "now: 2006-04-01T00:00:00Z", "now: 9999-12-31T23:59:59-23:59", 1),
		"date before 0": strings.Replace(good, "2006-04-01T00:00:00Z 1,0,0,0", "0000-01-01T00:00:00+01:00 1,0,0,0", 1),
		"bad date":      strings.Replace(good, "2006-04-01T00:00:00Z 1,0,0,0", "yesterday 1,0,0,0", 1),
		"misaligned":    strings.Replace(good, "10.1.1.0 ", "10.1.1.5 ", 1),
		"ragged line":   strings.Replace(good, "10.1.1.0 ", "10.1.1.0 extra ", 1),
	}
	for name, data := range cases {
		if _, err := Load(strings.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Duplicate block line.
	lines := strings.Split(strings.TrimSpace(good), "\n")
	dup := good + lines[len(lines)-1] + "\n"
	if _, err := Load(strings.NewReader(dup)); err == nil {
		t.Error("duplicate block accepted")
	}
}

func TestSaveDeterministicOrder(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(core.DimBot, ipset.MustParse("30.3.3.3 10.1.1.1 20.2.2.2"), epoch)
	var a, b strings.Builder
	if err := tr.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Save output not deterministic")
	}
	// Blocks are sorted by base address.
	idx1 := strings.Index(a.String(), "10.1.1.0")
	idx2 := strings.Index(a.String(), "20.2.2.0")
	idx3 := strings.Index(a.String(), "30.3.3.0")
	if !(idx1 < idx2 && idx2 < idx3) {
		t.Fatal("blocks not in address order")
	}
}
