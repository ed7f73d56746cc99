package phishfeed

import (
	"bytes"
	"testing"
)

// FuzzRead holds the feed reader — the mesh's phish source reads
// incident files from outside the program with ReadPrefix — to its
// contract: it returns an error, or a feed that Write serializes and
// ReadPrefix reads back equal and whole. The committed corpus holds a
// written feed, a truncated one, mid-file corruption and a URL with a
// carriage return.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		feed, _, err := ReadPrefix(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := feed.Write(&buf); err != nil {
			t.Fatalf("Write rejects a feed ReadPrefix accepted: %v", err)
		}
		again, badLine, err := ReadPrefix(&buf)
		if err != nil || badLine != 0 {
			t.Fatalf("written feed does not read back (bad line %d): %v\n%s", badLine, err, buf.Bytes())
		}
		if !sameIncidents(again, feed) {
			t.Fatal("feed reads back different")
		}
	})
}

// sameIncidents reports whether two feeds hold the same incidents in
// report-date order.
func sameIncidents(a, b *Feed) bool {
	ai, bi := a.Incidents(), b.Incidents()
	if len(ai) != len(bi) {
		return false
	}
	for i := range ai {
		if !ai[i].Reported.Equal(bi[i].Reported) || ai[i].URL != bi[i].URL || ai[i].Addr != bi[i].Addr {
			return false
		}
	}
	return true
}
