package phishfeed

import (
	"strings"
	"testing"
	"time"

	"unclean/internal/netaddr"
)

func day(d int) time.Time {
	return time.Date(2006, 5, d, 0, 0, 0, 0, time.UTC)
}

func sampleFeed() *Feed {
	f := &Feed{}
	f.Add(Incident{Reported: day(3), URL: "http://1.2.3.4/bank", Addr: netaddr.MustParseAddr("1.2.3.4")})
	f.Add(Incident{Reported: day(1), URL: "http://5.6.7.8/pay", Addr: netaddr.MustParseAddr("5.6.7.8")})
	f.Add(Incident{Reported: day(9), URL: "http://1.2.3.4/bank2", Addr: netaddr.MustParseAddr("1.2.3.4")})
	return f
}

func TestIncidentsSorted(t *testing.T) {
	f := sampleFeed()
	incs := f.Incidents()
	if len(incs) != 3 {
		t.Fatalf("len = %d", len(incs))
	}
	for i := 1; i < len(incs); i++ {
		if incs[i].Reported.Before(incs[i-1].Reported) {
			t.Fatal("incidents not sorted by date")
		}
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestAddrsBetween(t *testing.T) {
	f := sampleFeed()
	s := f.AddrsBetween(day(1), day(3))
	if s.Len() != 2 {
		t.Fatalf("AddrsBetween = %v", s)
	}
	// Duplicate host in window collapses to one address.
	all := f.AddrsBetween(day(1), day(31))
	if all.Len() != 2 {
		t.Fatalf("whole-window set = %v, want 2 (dedup)", all)
	}
	empty := f.AddrsBetween(day(20), day(25))
	if !empty.IsEmpty() {
		t.Fatalf("empty window returned %v", empty)
	}
	// Inclusive bounds.
	if got := f.AddrsBetween(day(9), day(9)); got.Len() != 1 {
		t.Fatalf("single-day window = %v", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := sampleFeed()
	var buf strings.Builder
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, badLine, err := ReadPrefix(strings.NewReader(buf.String()))
	if err != nil || badLine != 0 {
		t.Fatalf("round trip: bad line %d: %v", badLine, err)
	}
	want := f.Incidents()
	gotIncs := got.Incidents()
	if len(gotIncs) != len(want) {
		t.Fatalf("round trip len = %d, want %d", len(gotIncs), len(want))
	}
	for i := range want {
		if !gotIncs[i].Reported.Equal(want[i].Reported) || gotIncs[i].URL != want[i].URL || gotIncs[i].Addr != want[i].Addr {
			t.Errorf("incident %d: got %+v, want %+v", i, gotIncs[i], want[i])
		}
	}
}

func TestWriteRejectsSeparatorInURL(t *testing.T) {
	f := &Feed{}
	f.Add(Incident{Reported: day(1), URL: "http://x/a,b", Addr: 1})
	if err := f.Write(&strings.Builder{}); err == nil {
		t.Fatal("comma in URL accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	bad := []string{
		"2006-05-01,http://x", // 2 fields
		"05/01/2006,http://x,1.2.3.4",
		"2006-05-01,http://x,1.2.3",
		"0000-01-01,\r,0.0.0.0", // a URL Write would refuse
	}
	// A valid line after each bad one makes it corruption, not truncation.
	for _, line := range bad {
		if _, _, err := ReadPrefix(strings.NewReader(line + "\n2006-05-02,http://y,5.6.7.8\n")); err == nil {
			t.Errorf("accepted %q", line)
		}
	}
	// Comments and blanks are fine.
	got, badLine, err := ReadPrefix(strings.NewReader("# header\n\n2006-05-01,http://x,1.2.3.4\n"))
	if err != nil || badLine != 0 || got.Len() != 1 {
		t.Fatalf("comment handling: %v, bad line %d, %v", got, badLine, err)
	}
}

func TestLureURL(t *testing.T) {
	u := LureURL("bigbank", netaddr.MustParseAddr("1.2.3.4"), 0xdeadbeef)
	for _, want := range []string{"http://1.2.3.4/", "bigbank", "deadbeef"} {
		if !strings.Contains(u, want) {
			t.Errorf("LureURL %q missing %q", u, want)
		}
	}
	if strings.ContainsAny(u, ",\n") {
		t.Error("LureURL contains separator characters")
	}
}
