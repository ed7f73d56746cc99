package report

import (
	"bytes"
	"testing"
)

// FuzzRead holds the report reader — dnsbld ingests report directories
// it does not write — to its contract: it returns an error, or a report
// that Write serializes and Read reads back equal. The committed corpus
// holds a written report, reordered and commented headers, an empty
// body and the refusals next to them.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := r.Write(&buf); err != nil {
			t.Fatalf("Write rejects a report Read accepted: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("written report does not read back: %v\n%s", err, buf.Bytes())
		}
		if again.Tag != r.Tag || again.Type != r.Type || again.Class != r.Class ||
			!again.ValidFrom.Equal(r.ValidFrom) || !again.ValidTo.Equal(r.ValidTo) ||
			again.Method != r.Method || !again.Addrs.Equal(r.Addrs) {
			t.Fatalf("report reads back different:\n%+v\n%+v", again, r)
		}
	})
}
