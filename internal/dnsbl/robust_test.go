package dnsbl

import (
	"testing"
	"testing/quick"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/obs/flight"
)

// Decode must never panic on attacker-controlled packets — the server
// parses raw UDP payloads.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Mutated real packets exercise deeper parse paths than pure noise.
func TestDecodeMutatedPacketsNeverPanic(t *testing.T) {
	m := &Message{
		ID: 7, Response: true,
		Questions: []Question{{Name: "2.0.0.10.bl.example", Type: TypeA, Class: ClassIN}},
		Answers: []Answer{{Name: "2.0.0.10.bl.example", Type: TypeA, Class: ClassIN,
			TTL: 300, Data: []byte{127, 0, 0, 2}}},
	}
	base, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(base); i++ {
		for _, bit := range []byte{0x01, 0x80, 0xff} {
			mutated := append([]byte(nil), base...)
			mutated[i] ^= bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Decode panicked on mutation at %d: %v", i, r)
					}
				}()
				_, _ = Decode(mutated)
			}()
		}
	}
	// Every truncation of a valid packet.
	for i := 0; i < len(base); i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on truncation at %d: %v", i, r)
				}
			}()
			_, _ = Decode(base[:i])
		}()
	}
}

// handle (the full server path: decode -> lookup -> encode) must survive
// arbitrary packets without panicking, returning nil for garbage.
func TestServerHandleNeverPanics(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	srv, err := NewServer("bl.example", list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("handle panicked: %v", r)
			}
		}()
		_ = srv.handle(data, &flight.Event{})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
