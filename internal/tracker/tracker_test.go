package tracker

import (
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"unclean/internal/core"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

var epoch = time.Date(2006, 4, 1, 0, 0, 0, 0, time.UTC)

func newTracker(t *testing.T) *Tracker {
	t.Helper()
	tr, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Bits: 33, HalfLife: time.Hour, Tau: 1},
		{Bits: -1, HalfLife: time.Hour, Tau: 1},
		{Bits: 24, HalfLife: 0, Tau: 1},
		{Bits: 24, HalfLife: time.Hour, Tau: 0},
		{Bits: 24, HalfLife: time.Hour, Tau: math.NaN()},
		{Bits: 24, HalfLife: time.Hour, Tau: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestObserveAndScore(t *testing.T) {
	tr := newTracker(t)
	addrs := ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4")
	if err := tr.Observe(core.DimBot, addrs, epoch); err != nil {
		t.Fatal(err)
	}
	sc := tr.Score(netaddr.MustParseAddr("10.1.1.99"))
	want := 1 - math.Exp(-1) // 4 sightings / tau 4
	if math.Abs(sc.ByDim[core.DimBot]-want) > 1e-9 {
		t.Fatalf("bot score = %v, want %v", sc.ByDim[core.DimBot], want)
	}
	if tr.BlockCount() != 1 {
		t.Fatalf("BlockCount = %d", tr.BlockCount())
	}
	if tr.Score(netaddr.MustParseAddr("99.9.9.9")).Aggregate != 0 {
		t.Fatal("unseen block scored non-zero")
	}
	if err := tr.Observe(core.Dimension(9), addrs, epoch); err == nil {
		t.Fatal("bad dimension accepted")
	}
}

func TestHalfLifeDecay(t *testing.T) {
	tr := newTracker(t)
	addrs := ipset.MustParse("10.1.1.1")
	if err := tr.Observe(core.DimScan, addrs, epoch); err != nil {
		t.Fatal(err)
	}
	a := netaddr.MustParseAddr("10.1.1.1")
	fresh := tr.ScoreAt(a, epoch).ByDim[core.DimScan]
	// One half-life later the evidence count halves: score of count 0.5.
	later := tr.ScoreAt(a, epoch.Add(tr.cfg.HalfLife)).ByDim[core.DimScan]
	wantLater := 1 - math.Exp(-0.5/tr.cfg.Tau)
	if math.Abs(later-wantLater) > 1e-9 {
		t.Fatalf("half-life score = %v, want %v", later, wantLater)
	}
	if later >= fresh {
		t.Fatal("decay did not reduce the score")
	}
	// Far future: forgiven.
	distant := tr.ScoreAt(a, epoch.AddDate(5, 0, 0)).Aggregate
	if distant > 1e-6 {
		t.Fatalf("five-year-old evidence still scores %v", distant)
	}
}

func TestObserveOrderIndependence(t *testing.T) {
	addrs := ipset.MustParse("10.1.1.1")
	t1, t2 := epoch, epoch.AddDate(0, 0, 30)
	forward, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	forward.Observe(core.DimBot, addrs, t1)
	forward.Observe(core.DimBot, addrs, t2)
	backward, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	backward.Observe(core.DimBot, addrs, t2)
	backward.Observe(core.DimBot, addrs, t1)
	a := netaddr.MustParseAddr("10.1.1.1")
	at := t2.AddDate(0, 0, 10)
	f := forward.ScoreAt(a, at).ByDim[core.DimBot]
	bk := backward.ScoreAt(a, at).ByDim[core.DimBot]
	if math.Abs(f-bk) > 1e-9 {
		t.Fatalf("order dependent: forward %v vs backward %v", f, bk)
	}
}

func TestClockAdvances(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(core.DimBot, ipset.MustParse("10.1.1.1"), epoch)
	if !tr.now.Equal(epoch) {
		t.Fatal("clock not set by Observe")
	}
	tr.AdvanceTo(epoch.AddDate(0, 1, 0))
	if !tr.now.Equal(epoch.AddDate(0, 1, 0)) {
		t.Fatal("AdvanceTo did not move the clock")
	}
	tr.AdvanceTo(epoch) // backwards: ignored
	if !tr.now.Equal(epoch.AddDate(0, 1, 0)) {
		t.Fatal("clock moved backwards")
	}
}

func TestBlocklistThreshold(t *testing.T) {
	tr := newTracker(t)
	hot := ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4 10.1.1.5 10.1.1.6 10.1.1.7 10.1.1.8 10.1.1.9 10.1.1.10")
	cold := ipset.MustParse("10.2.2.1")
	tr.Observe(core.DimBot, hot, epoch)
	tr.Observe(core.DimBot, cold, epoch)
	bl := tr.Blocklist(0.8)
	if bl.Len() != 1 || !bl.Contains(netaddr.MustParseAddr("10.1.1.0")) {
		t.Fatalf("blocklist = %v", bl)
	}
	// After several half-lives the hot block drops off too.
	tr.AdvanceTo(epoch.Add(10 * tr.cfg.HalfLife))
	if got := tr.Blocklist(0.8); !got.IsEmpty() {
		t.Fatalf("stale blocklist = %v", got)
	}
}

func TestMultidimensionalAggregate(t *testing.T) {
	tr := newTracker(t)
	addrs := ipset.MustParse("10.1.1.1")
	tr.Observe(core.DimBot, addrs, epoch)
	tr.Observe(core.DimPhish, addrs, epoch)
	sc := tr.Score(netaddr.MustParseAddr("10.1.1.1"))
	want := 1 - (1-sc.ByDim[core.DimBot])*(1-sc.ByDim[core.DimPhish])
	if math.Abs(sc.Aggregate-want) > 1e-12 {
		t.Fatalf("aggregate = %v, want %v", sc.Aggregate, want)
	}
	if sc.ByDim[core.DimScan] != 0 || sc.ByDim[core.DimSpam] != 0 {
		t.Fatal("untouched dimensions non-zero")
	}
}

func TestAggregateBounds(t *testing.T) {
	tr := newTracker(t)
	addrs := ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4 10.1.1.5 10.1.1.6 10.1.1.7 10.1.1.8 10.1.1.9")
	for d := core.DimBot; d <= core.DimPhish; d++ {
		tr.Observe(d, addrs, epoch)
	}
	sc := tr.Score(netaddr.MustParseAddr("10.1.1.1"))
	if sc.Aggregate <= 0.99 || sc.Aggregate > 1 {
		t.Errorf("saturated aggregate = %v", sc.Aggregate)
	}
	for d, v := range sc.ByDim {
		if v < 0 || v > 1 {
			t.Errorf("dimension %d out of bounds: %v", d, v)
		}
	}
}

func TestDimensionsIndependent(t *testing.T) {
	// The §5.2 lesson: a network phishing-only and a network bot-only
	// must be distinguishable even when aggregates are equal.
	tr := newTracker(t)
	tr.Observe(core.DimPhish, ipset.MustParse("20.1.1.1 20.1.1.2"), epoch)
	tr.Observe(core.DimBot, ipset.MustParse("30.1.1.1 30.1.1.2"), epoch)
	phishy := tr.Score(netaddr.MustParseAddr("20.1.1.99"))
	botty := tr.Score(netaddr.MustParseAddr("30.1.1.99"))
	if phishy.ByDim[core.DimBot] != 0 || botty.ByDim[core.DimPhish] != 0 {
		t.Error("dimensions leaked into each other")
	}
	if phishy.Aggregate != botty.Aggregate {
		t.Error("symmetric evidence should give equal aggregates")
	}
}

func TestRankOrderAndTies(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(core.DimBot, ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3"), epoch) // strong
	tr.Observe(core.DimBot, ipset.MustParse("10.4.4.1"), epoch)                   // weak, tied with 10.2.2.0
	tr.Observe(core.DimScan, ipset.MustParse("10.3.3.1 10.3.3.2"), epoch)         // middling
	tr.Observe(core.DimSpam, ipset.MustParse("10.2.2.1"), epoch)                  // weak
	ranked := tr.Rank(10)
	var got []string
	for i, sb := range ranked {
		got = append(got, sb.Block.String())
		if sb.Score != tr.Score(sb.Block.Base()) {
			t.Errorf("%s: ranked score %+v, Score gives %+v", sb.Block, sb.Score, tr.Score(sb.Block.Base()))
		}
		if i > 0 && sb.Score.Aggregate > ranked[i-1].Score.Aggregate {
			t.Error("rank not descending")
		}
	}
	// Equal aggregates rank the lower base first.
	want := "[10.1.1.0/24 10.3.3.0/24 10.2.2.0/24 10.4.4.0/24]"
	if fmt.Sprint(got) != want {
		t.Fatalf("Rank(10) = %v, want %s", got, want)
	}
	if top := tr.Rank(1); len(top) != 1 || top[0].Block.String() != "10.1.1.0/24" {
		t.Errorf("Rank(1) = %v", top)
	}
	if none := tr.Rank(0); len(none) != 0 {
		t.Errorf("Rank(0) = %v", none)
	}
}

func TestTrackerPredictsFromStream(t *testing.T) {
	// Feed weekly bot reports from two persistent unclean /24s and one
	// one-off /24; by the end, the persistent blocks dominate.
	tr := newTracker(t)
	persistent := []string{"20.1.1.", "20.2.2."}
	for week := 0; week < 12; week++ {
		b := ipset.NewBuilder(4)
		for i, prefix := range persistent {
			b.Add(netaddr.MustParseAddr(prefix + digits(1+(week+i)%250)))
		}
		if week == 2 {
			b.Add(netaddr.MustParseAddr("30.3.3.3")) // transient
		}
		tr.Observe(core.DimBot, b.Build(), epoch.AddDate(0, 0, 7*week))
	}
	pScore := tr.Score(netaddr.MustParseAddr("20.1.1.200")).Aggregate
	tScore := tr.Score(netaddr.MustParseAddr("30.3.3.99")).Aggregate
	if pScore <= tScore {
		t.Fatalf("persistent block (%v) not scored above transient (%v)", pScore, tScore)
	}
	if pScore < 0.5 {
		t.Fatalf("persistent block score %v too low after 12 weekly sightings", pScore)
	}
}

func digits(n int) string {
	return strconv.Itoa(n)
}
