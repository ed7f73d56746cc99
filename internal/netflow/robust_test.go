package netflow

import (
	"bytes"
	"testing"
	"testing/quick"
)

// The stream reader consumes archive bytes; arbitrary input must return
// an error or clean EOF, never panic, and never read unbounded memory.
func TestReaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Reader panicked on %d bytes: %v", len(data), r)
			}
		}()
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 100; i++ { // bounded drain
			if _, err := r.Next(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalHeaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("UnmarshalHeader panicked: %v", r)
			}
		}()
		_, _ = UnmarshalHeader(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReader holds the archive reader to its contract on arbitrary
// bytes: it never panics, and every record it returns re-marshals, with
// its datagram's boot time from UnmarshalHeader, to the 48 input bytes
// it came from with the pad bytes zeroed. The seed corpus in testdata
// holds a two-datagram archive, its truncations, and a wrong version.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		off, left := 0, 0 // the next record's input offset; records left in its datagram
		var boot Time
		for {
			rec, err := r.Next()
			if err != nil {
				return
			}
			if left == 0 {
				h, err := UnmarshalHeader(data[off:])
				if err != nil {
					t.Fatalf("record returned from a datagram whose header at %d does not parse: %v", off, err)
				}
				boot, left = h.bootTime(), int(h.Count)
				off += HeaderSize
			}
			var got [RecordSize]byte
			marshalRecord(got[:], &rec, boot)
			want := bytes.Clone(data[off : off+RecordSize])
			want[36], want[46], want[47] = 0, 0, 0
			if !bytes.Equal(got[:], want) {
				t.Fatalf("record at %d re-marshals to\n%x, input is\n%x", off, got, want)
			}
			off += RecordSize
			left--
		}
	})
}
