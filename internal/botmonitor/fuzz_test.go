package botmonitor

import (
	"reflect"
	"testing"
)

// FuzzParseMessage holds the IRC line parser, which reads lines off the
// network, to the serializer: any input either fails to parse or parses
// to a message whose String parses back equal.
func FuzzParseMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		m, err := ParseMessage(line)
		if err != nil {
			return
		}
		again, err := ParseMessage(m.String())
		if err != nil {
			t.Fatalf("String of a parsed line does not parse (%v): %q -> %q", err, line, m.String())
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message: %q\n in  %#v\n out %#v", line, m, again)
		}
	})
}
