package phishfeed

// Edge cases of the feed format: duplicate incidents, out-of-order
// report dates, and the partial-file semantics of ReadPrefix — the one
// failure mode a non-atomic feed producer leaves behind (truncation)
// versus the one it never does (mid-file corruption).

import (
	"bytes"
	"strings"
	"testing"

	"unclean/internal/netaddr"
)

// roundTrip writes f and reads it back.
func roundTrip(t *testing.T, f *Feed) *Feed {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, badLine, err := ReadPrefix(&buf)
	if err != nil || badLine != 0 {
		t.Fatalf("written feed reads back with bad line %d: %v", badLine, err)
	}
	return got
}

func TestDuplicateIncidentsKeptButAddrsDedup(t *testing.T) {
	f := &Feed{}
	inc := Incident{Reported: day(2), URL: "http://1.2.3.4/bank", Addr: netaddr.MustParseAddr("1.2.3.4")}
	f.Add(inc)
	f.Add(inc) // the same lure reported twice is two incidents
	f.Add(Incident{Reported: day(5), URL: "http://1.2.3.4/other", Addr: netaddr.MustParseAddr("1.2.3.4")})

	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicates are incidents)", f.Len())
	}
	if s := f.AddrsBetween(day(1), day(9)); s.Len() != 1 {
		t.Fatalf("address set = %v, want the one shared host", s)
	}

	// Duplicates survive a write/read round trip verbatim.
	if got := roundTrip(t, f); got.Len() != 3 {
		t.Fatalf("round-trip Len = %d, want 3", got.Len())
	}
}

func TestOutOfOrderDatesSortedEverywhere(t *testing.T) {
	f := &Feed{}
	f.Add(Incident{Reported: day(9), URL: "http://a/9", Addr: netaddr.MustParseAddr("9.9.9.9")})
	f.Add(Incident{Reported: day(1), URL: "http://a/1", Addr: netaddr.MustParseAddr("1.1.1.1")})
	f.Add(Incident{Reported: day(9), URL: "http://a/9b", Addr: netaddr.MustParseAddr("9.9.9.10")})
	f.Add(Incident{Reported: day(4), URL: "http://a/4", Addr: netaddr.MustParseAddr("4.4.4.4")})

	incs := f.Incidents()
	for i := 1; i < len(incs); i++ {
		if incs[i].Reported.Before(incs[i-1].Reported) {
			t.Fatalf("Incidents not sorted at %d: %v after %v", i, incs[i].Reported, incs[i-1].Reported)
		}
	}
	// The sort is stable: equal dates keep insertion order.
	if incs[2].URL != "http://a/9" || incs[3].URL != "http://a/9b" {
		t.Errorf("equal-date incidents reordered: %q then %q", incs[2].URL, incs[3].URL)
	}

	// The serialized form is the sorted form, so a read sees sorted order
	// no matter how the producer appended.
	if first := roundTrip(t, f).Incidents()[0]; !first.Reported.Equal(day(1)) {
		t.Errorf("loaded feed starts at %v, want day 1", first.Reported)
	}
}

func TestReadPrefixTruncatedFile(t *testing.T) {
	// A well-formed feed cut mid-line: the prefix loads, the cut point is
	// reported with its real (header-inclusive) line number.
	cut := "# phish feed v1\n" +
		"2006-05-01,http://x/a,1.2.3.4\n" +
		"2006-05-02,http://x/b,5.6.7.8\n" +
		"2006-05-03,http://x/c,9.10."
	f, badLine, err := ReadPrefix(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("ReadPrefix on truncation: %v", err)
	}
	if f.Len() != 2 {
		t.Fatalf("prefix Len = %d, want 2", f.Len())
	}
	if badLine != 4 {
		t.Fatalf("badLine = %d, want 4", badLine)
	}

	// Trailing blank lines after the cut are still truncation, not
	// corruption: only a later *incident* line promotes the error.
	f, badLine, err = ReadPrefix(strings.NewReader(cut + "\n\n"))
	if err != nil || f.Len() != 2 || badLine != 4 {
		t.Fatalf("truncation + trailing blanks: len=%v badLine=%d err=%v", f.Len(), badLine, err)
	}

	// A fully well-formed feed reports badLine 0.
	whole := "2006-05-01,http://x/a,1.2.3.4\n"
	if _, badLine, err = ReadPrefix(strings.NewReader(whole)); err != nil || badLine != 0 {
		t.Fatalf("well-formed feed: badLine=%d err=%v", badLine, err)
	}

	// A file cut inside its very first incident yields an empty prefix —
	// the caller decides whether that is acceptable.
	f, badLine, err = ReadPrefix(strings.NewReader("2006-05-01,http://x"))
	if err != nil || f.Len() != 0 || badLine != 1 {
		t.Fatalf("first-line truncation: len=%d badLine=%d err=%v", f.Len(), badLine, err)
	}
}

func TestReadPrefixMidFileCorruptionStillFails(t *testing.T) {
	corrupt := "2006-05-01,http://x/a,1.2.3.4\n" +
		"garbage line\n" +
		"2006-05-03,http://x/c,9.9.9.9\n"
	if _, _, err := ReadPrefix(strings.NewReader(corrupt)); err == nil {
		t.Fatal("mid-file corruption accepted as truncation")
	}
}
