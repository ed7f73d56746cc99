package dnsbl

import "unclean/internal/netaddr"

// Zero-allocation wire codec for the batched fast path. The sharded
// serve loop answers the overwhelmingly common packet shape — one
// TypeA/ClassIN question for d.c.b.a.<zone>, no compression pointers —
// by reading the request bytes in place and writing the response
// directly into the batch's outbound slot. Anything unusual (other
// qtypes, wrong zone, multiple questions, compressed names, malformed
// headers) falls back to Server.handle, whose allocations are
// acceptable at the rarity those packets occur. The two paths produce
// byte-equivalent answers for every packet the fast path accepts; the
// differential test in shard_test.go holds them to that.

// respOverhead is the size of the fixed answer record the fast path
// appends: compression pointer (2) + type (2) + class (2) + TTL (4) +
// rdlength (2) + rdata (4).
const respOverhead = 16

// outSlotSize is the capacity of one outbound batch slot: a 512-byte
// message plus one answer record, more than any answer needs. NewServer
// bounds every answer either path writes at 286 bytes.
const outSlotSize = maxMessage + respOverhead

// parseFastQuery matches pkt against the fast-path shape: a standard
// query (QR=0, opcode 0) carrying exactly one TypeA/ClassIN question
// whose name is four decimal labels followed by the server's zone. It
// returns the queried address, the length of the header + question
// section (what the response echoes back), and whether recursion was
// requested. ok=false means "not this shape" — the caller must hand
// the packet to the slow path, which decides between answering and
// counting it malformed.
func parseFastQuery(pkt, zoneWire []byte) (addr netaddr.Addr, qlen int, rd bool, ok bool) {
	// Header: one question, no answer/authority records, opcode 0,
	// QR=0. Additional records (EDNS OPT) are tolerated and dropped
	// from the echoed section by construction.
	if len(pkt) < 12+4+1+4 { // header + 4 one-digit labels + type/class
		return 0, 0, false, false
	}
	flags := uint16(pkt[2])<<8 | uint16(pkt[3])
	if flags&(1<<15) != 0 || (flags>>11)&0xf != 0 {
		return 0, 0, false, false
	}
	if pkt[4] != 0 || pkt[5] != 1 || pkt[6] != 0 || pkt[7] != 0 || pkt[8] != 0 || pkt[9] != 0 {
		return 0, 0, false, false
	}
	// Four decimal labels, least-significant octet first (the DNSBL
	// reversed-quad convention). Semantics mirror netaddr.ParseAddr:
	// 1-3 digits, ≤255, no leading zeros.
	off := 12
	var octets [4]uint32
	for i := 0; i < 4; i++ {
		l := int(pkt[off])
		if l < 1 || l > 3 || off+1+l >= len(pkt) {
			return 0, 0, false, false
		}
		v := uint32(0)
		for j := off + 1; j <= off+l; j++ {
			c := pkt[j]
			if c < '0' || c > '9' {
				return 0, 0, false, false
			}
			v = v*10 + uint32(c-'0')
		}
		if v > 255 || (l > 1 && pkt[off+1] == '0') {
			return 0, 0, false, false
		}
		octets[i] = v
		off += 1 + l
	}
	// Zone labels, compared case-insensitively against the precomputed
	// lowercase wire form (length bytes are < 'A', so blanket folding
	// is safe).
	if off+len(zoneWire)+4 > len(pkt) {
		return 0, 0, false, false
	}
	for i, zc := range zoneWire {
		c := pkt[off+i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != zc {
			return 0, 0, false, false
		}
	}
	off += len(zoneWire)
	if pkt[off] != 0 || pkt[off+1] != byte(TypeA) || pkt[off+2] != 0 || pkt[off+3] != byte(ClassIN) {
		return 0, 0, false, false
	}
	addr = netaddr.Addr(octets[3]<<24 | octets[2]<<16 | octets[1]<<8 | octets[0])
	return addr, off + 4, flags&(1<<8) != 0, true
}

// encodeFastResponse writes the response for a fast-path query directly
// into dst (which must have outSlotSize capacity): the request's header
// and question echoed back with the response bits patched, plus one A
// record (compression pointer to the question name) when listed. rcode
// is RCodeNXDomain for misses, RCodeOK for hits. Returns the number of
// bytes written.
func encodeFastResponse(dst, req []byte, qlen int, listed bool, code netaddr.Addr, ttl uint32) int {
	n := copy(dst, req[:qlen])
	dst[2] = 0x84 | (req[2] & 0x01) // QR | AA, RD echoed
	dst[3] = RCodeNXDomain          // RA=0, Z=0
	dst[4], dst[5] = 0, 1           // QDCOUNT
	dst[6], dst[7] = 0, 0           // ANCOUNT (patched below on a hit)
	dst[8], dst[9], dst[10], dst[11] = 0, 0, 0, 0
	if listed {
		dst[3] = RCodeOK
		dst[7] = 1 // ANCOUNT
		o0, o1, o2, o3 := code.Octets()
		ans := dst[n : n+respOverhead]
		ans[0], ans[1] = 0xc0, 0x0c // pointer to the question name
		ans[2], ans[3] = 0, byte(TypeA)
		ans[4], ans[5] = 0, byte(ClassIN)
		ans[6], ans[7], ans[8], ans[9] = byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl)
		ans[10], ans[11] = 0, 4
		ans[12], ans[13], ans[14], ans[15] = o0, o1, o2, o3
		n += respOverhead
	}
	return n
}
