package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"time"

	"unclean/internal/netaddr"
)

// The load is closed-loop, as mail hosts waiting on each verdict make
// it: inFlight queries are outstanding on one UDP socket, and each answer
// releases the next query. One goroutine sends, receives and checks, so
// the generator keeps at most one core busy. It takes every answer
// queued on the socket at once and sends the queries they release
// together.

const (
	inFlight = 64 // one query ID slot each: the ID's low six bits
	// queryTimeout is how long a query may go unanswered before it
	// counts as failed and its slot is reused.
	queryTimeout = time.Second
	// sweepEvery is how often outstanding queries are checked for
	// timeouts.
	sweepEvery = 10 * time.Millisecond
)

// loadResult is one load run as the client saw it.
type loadResult struct {
	sent, answered         int
	wrong, timeouts, stray int
	firstWrong             string
	// lat holds the round trip of each correct answer, in ns, by the
	// whole second of the run it arrived in; the last slot collects the
	// answers that arrived after the run's end.
	lat       [][]uint32
	wall, cpu time.Duration
}

// slot is one outstanding query.
type slot struct {
	q    []byte // the query as sent
	pi   uint32 // its pool index
	gen  uint16 // the ID's high ten bits, bumped per reuse
	sent time.Time
	busy bool
}

// runLoad sends in's query stream to server for dur, closed-loop, and
// checks every answer against in.want.
func runLoad(ctx context.Context, server string, in *serveInputs, dur time.Duration) (*loadResult, error) {
	conn, err := net.Dial("udp", server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	mc, err := newMmsgConn(conn.(*net.UDPConn), inFlight)
	if err != nil {
		return nil, err
	}
	// One P: the generator and its network poller then hold at most one
	// core, and no idle P of this process spins beside the daemon. On two
	// vCPUs this raised the rate and lowered the median round trip in
	// each of four alternating pairs of runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	zw := zoneWire(zone)
	lr := &loadResult{lat: make([][]uint32, int(dur/time.Second)+1)}
	slots := make([]slot, inFlight)
	next, outstanding := 0, 0
	var batch [][]byte
	// queue readies slot i's next query; flush sends the queued ones.
	queue := func(i int) {
		s := &slots[i]
		s.pi = in.seq[next%len(in.seq)]
		next++
		s.gen = (s.gen + 1) & 0x3ff
		s.q = appendQuery(s.q[:0], s.gen<<6|uint16(i), in.pool[s.pi], zw)
		s.busy = true
		batch = append(batch, s.q)
		outstanding++
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		now := time.Now()
		for _, q := range batch {
			slots[int(q[1])&(inFlight-1)].sent = now
		}
		lr.sent += len(batch)
		err := mc.send(batch)
		batch = batch[:0]
		return err
	}

	cpu0 := processCPU()
	start := time.Now()
	end := start.Add(dur)
	for i := range slots {
		queue(i)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	nextSweep := start
	for outstanding > 0 {
		now := time.Now()
		if now.After(nextSweep) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for i := range slots {
				s := &slots[i]
				if !s.busy || now.Sub(s.sent) < queryTimeout {
					continue
				}
				s.busy = false
				outstanding--
				lr.timeouts++
				if now.Before(end) {
					queue(i)
				}
			}
			if err := flush(); err != nil {
				return nil, err
			}
			nextSweep = now.Add(sweepEvery)
			if err := conn.SetReadDeadline(nextSweep.Add(sweepEvery)); err != nil {
				return nil, err
			}
		}
		resps, err := mc.recv()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return nil, err
		}
		now = time.Now()
		sec := min(int(now.Sub(start)/time.Second), len(lr.lat)-1)
		for _, resp := range resps {
			if len(resp) < 2 {
				lr.stray++
				continue
			}
			id := uint16(resp[0])<<8 | uint16(resp[1])
			i := int(id & (inFlight - 1))
			s := &slots[i]
			if !s.busy || id>>6 != s.gen {
				lr.stray++ // a duplicate, or an answer after its query timed out
				continue
			}
			s.busy = false
			outstanding--
			if err := checkAnswer(s.q, resp, in.want[s.pi]); err != nil {
				if lr.wrong == 0 {
					lr.firstWrong = fmt.Sprintf("%s: %v", in.pool[s.pi], err)
				}
				lr.wrong++
			} else {
				lr.answered++
				rtt := uint32(min(now.Sub(s.sent), time.Duration(^uint32(0))))
				lr.lat[sec] = append(lr.lat[sec], rtt)
			}
			if now.Before(end) {
				queue(i)
			}
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}
	lr.wall = time.Since(start)
	lr.cpu = processCPU() - cpu0
	return lr, nil
}

// zoneWire is a zone name in DNS wire form, with the root label.
func zoneWire(name string) []byte {
	var b []byte
	for _, label := range strings.Split(name, ".") {
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0)
}

// appendQuery appends a DNSBL query for a (d.c.b.a.<zone> IN A, recursion
// desired) with the given ID.
func appendQuery(dst []byte, id uint16, a netaddr.Addr, zw []byte) []byte {
	dst = append(dst, byte(id>>8), byte(id), 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0)
	o0, o1, o2, o3 := a.Octets()
	for _, o := range [4]byte{o3, o2, o1, o0} {
		switch {
		case o >= 100:
			dst = append(dst, 3, '0'+o/100, '0'+o/10%10, '0'+o%10)
		case o >= 10:
			dst = append(dst, 2, '0'+o/10, '0'+o%10)
		default:
			dst = append(dst, 1, '0'+o)
		}
	}
	dst = append(dst, zw...)
	return append(dst, 0, 1, 0, 1) // QTYPE A, QCLASS IN
}

// checkAnswer checks a response to query q: same ID, a complete
// response echoing the question, NXDOMAIN with no records when want is
// 0, else exactly one A record, 127.0.0.want, naming the question.
func checkAnswer(q, resp []byte, want uint8) error {
	if len(resp) < len(q) {
		return fmt.Errorf("%d-byte response to a %d-byte query", len(resp), len(q))
	}
	switch {
	case resp[0] != q[0] || resp[1] != q[1]:
		return errors.New("ID mismatch")
	case resp[2]&0x80 == 0:
		return errors.New("QR bit clear")
	case resp[2]&0x78 != 0:
		return errors.New("nonzero opcode")
	case resp[2]&0x02 != 0:
		return errors.New("truncated")
	case resp[4] != 0 || resp[5] != 1:
		return errors.New("QDCOUNT is not 1")
	case string(resp[12:len(q)]) != string(q[12:]):
		return errors.New("question not echoed")
	}
	rcode := resp[3] & 0x0f
	ancount := int(resp[6])<<8 | int(resp[7])
	if want == 0 {
		if rcode != 3 || ancount != 0 || len(resp) != len(q) {
			return fmt.Errorf("want NXDOMAIN, got rcode %d with %d answers in %d bytes", rcode, ancount, len(resp))
		}
		return nil
	}
	if rcode != 0 || ancount != 1 {
		return fmt.Errorf("want 127.0.0.%d, got rcode %d with %d answers", want, rcode, ancount)
	}
	a := resp[len(q):]
	if len(a) != 16 || a[0] != 0xc0 || a[1] != 0x0c || a[2] != 0 || a[3] != 1 || a[4] != 0 || a[5] != 1 || a[10] != 0 || a[11] != 4 {
		return errors.New("malformed A record")
	}
	if a[12] != 127 || a[13] != 0 || a[14] != 0 || a[15] != want {
		return fmt.Errorf("want 127.0.0.%d, got %d.%d.%d.%d", want, a[12], a[13], a[14], a[15])
	}
	return nil
}
