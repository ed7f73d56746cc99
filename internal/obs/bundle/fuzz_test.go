package bundle

import (
	"bytes"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
)

// FuzzRead holds the bundle reader — `uncleanctl diagnose -summarize`
// reads bundles from other hosts — to its contract: it returns an error
// or a bundle whose members are exactly the manifest's, with matching
// sizes and CRCs; Write re-encodes that bundle and Read reads it back
// equal; Summarize never panics on it. The committed corpus holds a
// real capture, a truncated gzip, a tampered CRC, an unlisted member, a
// duplicate member and a manifest that is not first.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(b.Files) != len(b.Manifest.Files) {
			t.Fatalf("bundle holds %d members, manifest lists %d", len(b.Files), len(b.Manifest.Files))
		}
		files := make([]File, len(b.Manifest.Files))
		for i, fe := range b.Manifest.Files {
			d, ok := b.Files[fe.Name]
			if !ok || int64(len(d)) != fe.Size || crc32.ChecksumIEEE(d) != fe.CRC32 {
				t.Fatalf("member %s does not match its manifest entry %+v", fe.Name, fe)
			}
			files[i] = File{Name: fe.Name, Data: d, Note: fe.Note}
		}

		var buf bytes.Buffer
		if err := Write(&buf, b.Manifest, files); err != nil {
			t.Fatalf("Write rejects a bundle Read accepted: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded bundle does not read back: %v", err)
		}
		if len(b.Manifest.Files) == 0 {
			b.Manifest.Files = again.Manifest.Files // absent and empty lists encode alike
		}
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("re-encoded bundle reads back different:\n%+v\n%+v", again, b)
		}
		_ = Summarize(io.Discard, b) // an error is fine; a panic is not
	})
}
