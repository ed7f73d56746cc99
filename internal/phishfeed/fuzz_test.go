package phishfeed

import (
	"bytes"
	"testing"
)

// FuzzRead holds the feed readers — the mesh's phish source reads
// incident files from outside the program with ReadPrefix — to their
// contract: each returns an error, or a feed that Write serializes and
// Read reads back equal; ReadPrefix agrees with Read on every input
// without a bad line. The committed corpus holds a written feed, a
// truncated one, mid-file corruption and a URL with a carriage return.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		full, errFull := Read(bytes.NewReader(data))
		prefix, badLine, errPrefix := ReadPrefix(bytes.NewReader(data))
		if (errFull == nil) != (errPrefix == nil && badLine == 0) {
			t.Fatalf("Read err %v, but ReadPrefix err %v at bad line %d", errFull, errPrefix, badLine)
		}
		if errFull == nil && !sameIncidents(full, prefix) {
			t.Fatal("Read and ReadPrefix read the same feed differently")
		}
		if errPrefix != nil {
			return
		}
		var buf bytes.Buffer
		if err := prefix.Write(&buf); err != nil {
			t.Fatalf("Write rejects a feed ReadPrefix accepted: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("written feed does not read back: %v\n%s", err, buf.Bytes())
		}
		if !sameIncidents(again, prefix) {
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
