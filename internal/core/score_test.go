package core

import (
	"math"
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

func TestScorerBasics(t *testing.T) {
	s, err := NewScorer(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.AddReport(DimBot, ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4"), 1)
	s.AddReport(DimScan, ipset.MustParse("10.1.1.9"), 1)

	sc := s.Score(netaddr.MustParseAddr("10.1.1.200"))
	// Bot dimension: 4 sightings at tau=4 -> 1-1/e.
	if want := 1 - math.Exp(-1); math.Abs(sc.ByDim[DimBot]-want) > 1e-9 {
		t.Errorf("bot score = %v, want %v", sc.ByDim[DimBot], want)
	}
	if sc.ByDim[DimPhish] != 0 {
		t.Errorf("phish score = %v, want 0", sc.ByDim[DimPhish])
	}
	// Aggregate = 1 - (1-bot)(1-scan).
	want := 1 - (1-sc.ByDim[DimBot])*(1-sc.ByDim[DimScan])
	if math.Abs(sc.Aggregate-want) > 1e-12 {
		t.Errorf("aggregate = %v, want %v", sc.Aggregate, want)
	}
	// Unseen block scores zero.
	zero := s.Score(netaddr.MustParseAddr("99.9.9.9"))
	if zero.Aggregate != 0 {
		t.Errorf("unseen block aggregate = %v", zero.Aggregate)
	}
	if s.BlockCount() != 1 {
		t.Errorf("BlockCount = %d", s.BlockCount())
	}
	if s.bits != 24 {
		t.Errorf("bits = %d", s.bits)
	}
}

func TestScorerAggregateBounds(t *testing.T) {
	s, _ := NewScorer(24, 2)
	addrs := ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4 10.1.1.5 10.1.1.6 10.1.1.7 10.1.1.8 10.1.1.9")
	for d := DimBot; d <= DimPhish; d++ {
		s.AddReport(d, addrs, 5)
	}
	sc := s.Score(netaddr.MustParseAddr("10.1.1.1"))
	if sc.Aggregate <= 0.99 || sc.Aggregate > 1 {
		t.Errorf("saturated aggregate = %v", sc.Aggregate)
	}
	for d := 0; d < 4; d++ {
		if sc.ByDim[d] < 0 || sc.ByDim[d] > 1 {
			t.Errorf("dimension %d out of bounds: %v", d, sc.ByDim[d])
		}
	}
}

func TestScorerMultidimensionalIndependence(t *testing.T) {
	// The §5.2 lesson: a network phishing-only and a network bot-only
	// must be distinguishable even when aggregates are equal.
	s, _ := NewScorer(24, 1)
	s.AddReport(DimPhish, ipset.MustParse("20.1.1.1 20.1.1.2"), 1)
	s.AddReport(DimBot, ipset.MustParse("30.1.1.1 30.1.1.2"), 1)
	phishy := s.Score(netaddr.MustParseAddr("20.1.1.99"))
	botty := s.Score(netaddr.MustParseAddr("30.1.1.99"))
	if phishy.ByDim[DimBot] != 0 || botty.ByDim[DimPhish] != 0 {
		t.Error("dimensions leaked into each other")
	}
	if phishy.Aggregate != botty.Aggregate {
		t.Error("symmetric evidence should give equal aggregates")
	}
}

func TestScorerWeightsAndIgnoredInput(t *testing.T) {
	s, _ := NewScorer(24, 4)
	s.AddReport(DimBot, ipset.MustParse("10.1.1.1"), 0)         // zero weight ignored
	s.AddReport(Dimension(200), ipset.MustParse("10.1.1.1"), 1) // bad dim ignored
	if s.BlockCount() != 0 {
		t.Fatal("ignored input created evidence")
	}
	s.AddReport(DimBot, ipset.MustParse("10.1.1.1"), 0.5)
	half := s.Score(netaddr.MustParseAddr("10.1.1.1")).ByDim[DimBot]
	s.AddReport(DimBot, ipset.MustParse("10.1.1.1"), 0.5)
	full := s.Score(netaddr.MustParseAddr("10.1.1.1")).ByDim[DimBot]
	if full <= half {
		t.Error("additional weighted evidence did not raise the score")
	}
}

func TestScorerRank(t *testing.T) {
	s, _ := NewScorer(24, 1)
	s.AddReport(DimBot, ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3"), 1) // strong
	s.AddReport(DimBot, ipset.MustParse("10.2.2.1"), 1)                   // weak
	s.AddReport(DimScan, ipset.MustParse("10.3.3.1 10.3.3.2"), 1)         // middling
	ranked := s.Rank(10)
	if len(ranked) != 3 {
		t.Fatalf("ranked = %d blocks", len(ranked))
	}
	if ranked[0].Block.String() != "10.1.1.0/24" {
		t.Errorf("top block = %s", ranked[0].Block)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score.Aggregate > ranked[i-1].Score.Aggregate {
			t.Error("rank not descending")
		}
	}
	if top := s.Rank(1); len(top) != 1 {
		t.Errorf("Rank(1) = %d blocks", len(top))
	}
}

func TestScorerBlocklist(t *testing.T) {
	s, _ := NewScorer(24, 1)
	s.AddReport(DimBot, ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4"), 1)
	s.AddReport(DimBot, ipset.MustParse("10.2.2.1"), 1)
	bl := s.Blocklist(0.9)
	if bl.Len() != 1 || !bl.Contains(netaddr.MustParseAddr("10.1.1.0")) {
		t.Fatalf("blocklist = %v", bl)
	}
	if all := s.Blocklist(0); all.Len() != 2 {
		t.Fatalf("zero-threshold blocklist = %v", all)
	}
}

func TestNewScorerValidation(t *testing.T) {
	if _, err := NewScorer(33, 1); err == nil {
		t.Error("bits 33 accepted")
	}
	if _, err := NewScorer(24, 0); err == nil {
		t.Error("tau 0 accepted")
	}
}

func TestDimensionString(t *testing.T) {
	if DimBot.String() != "bot" || DimPhish.String() != "phish" {
		t.Error("dimension names wrong")
	}
	if Dimension(9).String() != "unknown" {
		t.Error("out-of-range dimension name")
	}
}
