package dnsbl

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/retry"
)

// queryID returns an unpredictable DNS query ID. A guessable ID (the old
// code derived it from the wall clock) lets an off-path attacker spoof
// answers; crypto/rand closes that. The zero ID is avoided only so
// captures are easier to eyeball.
func queryID() (uint16, error) {
	var b [2]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("dnsbl: query id: %w", err)
	}
	id := binary.BigEndian.Uint16(b[:])
	if id == 0 {
		id = 1
	}
	return id, nil
}

// DefaultLookupPolicy is the retry schedule Lookup uses: a lost UDP
// datagram costs one per-attempt timeout, then an immediate resend.
func DefaultLookupPolicy() retry.Policy {
	return retry.Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Jitter: 1}
}

// Lookup performs a DNSBL query against server (a UDP address) and
// reports whether addr is listed, with the return code when it is. Lost
// packets are retried per DefaultLookupPolicy; timeout bounds each
// attempt.
func Lookup(server string, zone string, addr netaddr.Addr, timeout time.Duration) (listed bool, code netaddr.Addr, err error) {
	return LookupCtx(context.Background(), server, zone, addr, timeout, DefaultLookupPolicy())
}

// LookupCtx is Lookup with an explicit context and retry policy. Each
// attempt sends a fresh query (new random ID) and waits up to timeout
// for the matching response, ignoring stray or mismatched packets
// instead of failing on them. Transient failures — attempt timeouts,
// temporary network errors — are retried; malformed responses from the
// server are permanent.
func LookupCtx(ctx context.Context, server, zone string, addr netaddr.Addr, timeout time.Duration, p retry.Policy) (listed bool, code netaddr.Addr, err error) {
	err = retry.Do(ctx, p, func() error {
		var aerr error
		listed, code, aerr = lookupOnce(server, zone, addr, timeout)
		return aerr
	})
	return listed, code, err
}

// lookupOnce runs a single query/response exchange.
func lookupOnce(server, zone string, addr netaddr.Addr, timeout time.Duration) (bool, netaddr.Addr, error) {
	conn, err := net.Dial("udp", server)
	if err != nil {
		return false, 0, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return false, 0, err
	}
	id, err := queryID()
	if err != nil {
		return false, 0, retry.Permanent(err)
	}
	q := &Message{
		ID:               id,
		RecursionDesired: true,
		Questions: []Question{{
			Name:  QueryName(addr, zone),
			Type:  TypeA,
			Class: ClassIN,
		}},
	}
	pkt, err := q.Encode()
	if err != nil {
		return false, 0, retry.Permanent(err)
	}
	if _, err := conn.Write(pkt); err != nil {
		return false, 0, err
	}
	buf := make([]byte, maxMessage)
	// Keep reading until the matching response or the deadline: stray
	// datagrams (late answers to a previous attempt, spoofing chaff,
	// misdelivery) must not abort the lookup.
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return false, 0, err // deadline exceeded or socket failure: retryable
		}
		resp, err := Decode(buf[:n])
		if err != nil || resp.ID != q.ID || !resp.Response {
			continue
		}
		if resp.Truncated {
			// TC bit: the full answer did not fit the UDP limit. Retry
			// the same query over TCP (RFC 1035 §4.2.1), reusing what
			// remains of this attempt's deadline.
			return lookupTCP(server, pkt, q.ID, deadline)
		}
		listed, code := answerFrom(resp)
		return listed, code, nil
	}
}

// answerFrom extracts the (listed, code) verdict from a decoded
// response. Split out so the UDP and TCP legs cannot drift.
func answerFrom(resp *Message) (bool, netaddr.Addr) {
	if resp.RCode == RCodeNXDomain {
		return false, 0
	}
	for _, a := range resp.Answers {
		if a.Type == TypeA && len(a.Data) == 4 {
			return true, netaddr.MakeAddr(a.Data[0], a.Data[1], a.Data[2], a.Data[3])
		}
	}
	return false, 0
}

// lookupTCP resends an already-encoded query over TCP with RFC 1035
// §4.2.2 two-byte length framing, for answers the UDP transport
// truncated.
func lookupTCP(server string, pkt []byte, id uint16, deadline time.Time) (bool, netaddr.Addr, error) {
	conn, err := net.Dial("tcp", server)
	if err != nil {
		return false, 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline); err != nil {
		return false, 0, err
	}
	framed := make([]byte, 2+len(pkt))
	binary.BigEndian.PutUint16(framed, uint16(len(pkt)))
	copy(framed[2:], pkt)
	if _, err := conn.Write(framed); err != nil {
		return false, 0, err
	}
	var lenb [2]byte
	if _, err := io.ReadFull(conn, lenb[:]); err != nil {
		return false, 0, err
	}
	n := int(binary.BigEndian.Uint16(lenb[:]))
	if n == 0 {
		return false, 0, retry.Permanent(fmt.Errorf("dnsbl: empty TCP response"))
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(conn, buf); err != nil {
		return false, 0, err
	}
	resp, err := Decode(buf)
	if err != nil {
		return false, 0, retry.Permanent(err)
	}
	if resp.ID != id || !resp.Response {
		return false, 0, retry.Permanent(fmt.Errorf("dnsbl: mismatched TCP response"))
	}
	listed, code := answerFrom(resp)
	return listed, code, nil
}
