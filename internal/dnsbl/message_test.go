package dnsbl

import (
	"reflect"
	"testing"
)

// FuzzDecode holds the slow-path decoder, which the client runs on every
// response and the server on every packet the fast path passes over, to
// the encoder: any input either fails to decode or decodes to a message
// that Encode writes and Decode reads back equal. Decode must refuse
// what Encode refuses — a label holding a dot, a name past 253 wire
// bytes, a message that would re-encode past 512 bytes.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, pkt []byte) {
		m, err := Decode(pkt)
		if err != nil {
			return
		}
		out, err := m.Encode()
		if err != nil {
			t.Fatalf("Encode refuses what Decode accepted (%v): %x\n%+v", err, pkt, m)
		}
		again, err := Decode(out)
		if err != nil {
			t.Fatalf("Decode refuses what Encode wrote (%v): %x", err, out)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message:\n in  %+v\n out %+v", m, again)
		}
	})
}
