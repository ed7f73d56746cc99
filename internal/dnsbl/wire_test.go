package dnsbl

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
	"unclean/internal/obs/flight"
)

// longestZone is the longest zone NewServer accepts: with four
// three-digit octet labels in front, its query names sit exactly at the
// DNS name-length limit.
var longestZone = strings.Repeat("a", 63) + "." + strings.Repeat("b", 63) + "." +
	strings.Repeat("c", 63) + "." + strings.Repeat("d", 44)

// FuzzFastQuery holds the zero-copy fast codec to the slow path that
// every other packet and every TCP query takes. For any input neither
// parseFastQuery nor Server.handle may panic, and whenever the fast
// parser accepts a packet it must read the address the slow path reads
// and encodeFastResponse must write exactly the bytes handle returns.
// Every answer either path writes must fit the 512-byte UDP limit. Each
// input runs against the shard tests' zone and the longest legal zone.
func FuzzFastQuery(f *testing.F) {
	var srvs []*Server
	for _, zone := range []string{"bl.shard.example", longestZone} {
		srv, err := NewServer(zone, shardTestList(), time.Minute)
		if err != nil {
			f.Fatal(err)
		}
		srvs = append(srvs, srv)
	}
	f.Fuzz(func(t *testing.T, pkt []byte) {
		for _, srv := range srvs {
			addr, qlen, _, ok := parseFastQuery(pkt, srv.zoneWire)
			var listed bool
			var code netaddr.Addr
			if ok {
				q, err := Decode(pkt)
				if err != nil || len(q.Questions) != 1 {
					t.Fatalf("zone %q: fast path accepted a packet Decode rejects (%v): %x", srv.zone, err, pkt)
				}
				if want, wok := ParseQueryName(q.Questions[0].Name, srv.zone); !wok || want != addr {
					t.Fatalf("zone %q: fast parse read %s, slow path (%s, %v): %x", srv.zone, addr, want, wok, pkt)
				}
				var entry blocklist.Entry
				entry, listed = srv.list.Load().Lookup(addr)
				if listed {
					code = codeFor(entry.Reason)
				}
			}
			var ev flight.Event
			slow := srv.handle(pkt, &ev)
			if len(slow) > maxMessage {
				t.Fatalf("zone %q: slow path wrote a %d-byte answer for %x", srv.zone, len(slow), pkt)
			}
			if !ok {
				continue
			}
			var out [outSlotSize]byte
			n := encodeFastResponse(out[:], pkt, qlen, listed, code, srv.ttl)
			if n > maxMessage {
				t.Fatalf("zone %q: fast path wrote a %d-byte answer for %x", srv.zone, n, pkt)
			}
			if !bytes.Equal(out[:n], slow) {
				t.Fatalf("zone %q: codec divergence for %x:\n fast %x\n slow %x",
					srv.zone, pkt, out[:n], slow)
			}
		}
	})
}
