package locality

import (
	"strings"
	"testing"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

var day0 = time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)

func flow(src, dst string, day int, payload bool) netflow.Record {
	at := day0.Add(time.Duration(day)*24*time.Hour + 3*time.Hour)
	r := netflow.Record{
		SrcAddr: netaddr.MustParseAddr(src),
		DstAddr: netaddr.MustParseAddr(dst),
		First:   netflow.TimeOf(at), Last: netflow.TimeOf(at.Add(time.Minute)),
		Proto: netflow.ProtoTCP, SrcPort: 2000, DstPort: 80,
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

func TestAnalyzeNewVsReturning(t *testing.T) {
	records := []netflow.Record{
		flow("1.1.1.1", "30.0.0.1", 0, true),
		flow("2.2.2.2", "30.0.0.1", 0, true),
		flow("1.1.1.1", "30.0.0.1", 1, true), // returning
		flow("3.3.3.3", "30.0.0.1", 1, true), // new
		flow("1.1.1.1", "30.0.0.2", 2, true), // returning
		flow("1.1.1.1", "30.0.0.2", 2, true), // dedup within day
	}
	a := Analyze(records, false)
	if len(a.Days) != 3 {
		t.Fatalf("days = %d", len(a.Days))
	}
	if a.Days[0].New != 2 || a.Days[0].Returning != 0 {
		t.Errorf("day0 = %+v", a.Days[0])
	}
	if a.Days[1].New != 1 || a.Days[1].Returning != 1 {
		t.Errorf("day1 = %+v", a.Days[1])
	}
	if a.Days[2].Sources != 1 || a.Days[2].Returning != 1 {
		t.Errorf("day2 = %+v", a.Days[2])
	}
	if a.WorkingSet.Len() != 3 {
		t.Errorf("working set = %v", a.WorkingSet)
	}
	// Returning fraction over days 1-2: (1+1)/(2+1).
	if got := a.ReturningFraction(); got < 0.66 || got > 0.67 {
		t.Errorf("ReturningFraction = %v", got)
	}
}

func TestAnalyzePayloadOnly(t *testing.T) {
	records := []netflow.Record{
		flow("1.1.1.1", "30.0.0.1", 0, true),
		flow("6.6.6.6", "30.0.0.1", 0, false), // scanner: excluded
	}
	a := Analyze(records, true)
	if a.WorkingSet.Len() != 1 {
		t.Fatalf("payload-only working set = %v", a.WorkingSet)
	}
	all := Analyze(records, false)
	if all.WorkingSet.Len() != 2 {
		t.Fatalf("full working set = %v", all.WorkingSet)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil, false)
	if len(a.Days) != 0 || a.WorkingSet.Len() != 0 || a.ReturningFraction() != 0 {
		t.Fatal("empty analysis not empty")
	}
}

func TestAudiences(t *testing.T) {
	records := []netflow.Record{
		flow("1.1.1.1", "30.0.0.1", 0, true),
		flow("2.2.2.2", "30.0.0.1", 0, true),
		flow("3.3.3.3", "30.0.0.1", 0, true),
		flow("1.1.1.1", "30.0.0.2", 0, true),
	}
	b := Audiences(records, false)
	if b.N != 2 || b.Max != 3 || b.Min != 1 {
		t.Fatalf("audiences = %+v", b)
	}
	if empty := Audiences(nil, false); empty.N != 0 {
		t.Fatal("empty audiences not empty")
	}
}

func TestSpanUtilization(t *testing.T) {
	records := []netflow.Record{
		flow("10.1.1.5", "30.0.0.1", 0, true),
		flow("10.1.1.6", "30.0.0.1", 0, false),
		flow("99.9.9.9", "30.0.0.1", 0, true), // outside cover
	}
	cover := ipset.MustParse("10.1.1.1")
	seen, span, frac := SpanUtilization(records, cover, 24)
	if seen != 2 || span != 256 {
		t.Fatalf("seen=%d span=%d", seen, span)
	}
	if frac < 0.0078 || frac > 0.0079 {
		t.Fatalf("frac = %v", frac)
	}
}

func TestRender(t *testing.T) {
	a := Analyze([]netflow.Record{flow("1.1.1.1", "30.0.0.1", 0, true)}, false)
	out := a.Render()
	for _, want := range []string{"date", "working set", "2006-10-01"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
