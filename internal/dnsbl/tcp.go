package dnsbl

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/obs/flight"
)

// tcpIdleTimeout bounds how long a TCP client may sit between queries;
// DNSBL exchanges are one round trip, so anything slower is a stuck or
// hostile peer holding a connection slot.
const tcpIdleTimeout = 10 * time.Second

// ServeTCP answers length-prefixed DNS queries on ln until the listener
// is closed or ctx is canceled (RFC 1035 §4.2.2 framing: two-byte
// big-endian length before each message). TCP is DNS's other standard
// transport: resolvers use it by policy, and a client whose UDP answer
// came back with the TC bit set retries over it (Lookup does). This
// server's own answers always fit UDP, so it never sets TC. Queries
// share the UDP path's counters, flight events, and blocklist, so a TCP
// query is just another query in the stats.
//
// Each connection is handled on its own goroutine with panic isolation
// and an idle deadline; multiple queries per connection are allowed.
func (s *Server) ServeTCP(ctx context.Context, ln net.Listener) error {
	stopCloser := make(chan struct{})
	var closerWG sync.WaitGroup
	closerWG.Add(1)
	go func() {
		defer closerWG.Done()
		select {
		case <-ctx.Done():
			ln.Close() //nolint:errcheck // best effort; Accept observes ErrClosed
		case <-stopCloser:
		}
	}()

	var wg sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					continue
				}
				acceptErr = err
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cancellation must unblock conn reads too, not just Accept.
			stop := context.AfterFunc(ctx, func() { conn.Close() })
			defer stop()
			s.serveTCPConn(conn)
		}()
	}
	wg.Wait()
	close(stopCloser)
	closerWG.Wait()
	return acceptErr
}

// serveTCPConn answers queries on one TCP connection until the peer
// hangs up, misbehaves, or idles out.
func (s *Server) serveTCPConn(conn net.Conn) {
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			s.dropped.Inc()
		}
	}()
	var arena flight.Arena
	var lenb [2]byte
	buf := make([]byte, maxMessage)
	for {
		if err := conn.SetDeadline(time.Now().Add(tcpIdleTimeout)); err != nil {
			return
		}
		if _, err := io.ReadFull(conn, lenb[:]); err != nil {
			return // EOF, idle timeout, or shutdown close — all final
		}
		n := int(binary.BigEndian.Uint16(lenb[:]))
		if n == 0 || n > maxMessage {
			return // framing violation; drop the connection
		}
		if _, err := io.ReadFull(conn, buf[:n]); err != nil {
			return
		}
		start := time.Now()
		ev := arena.New()
		ev.Kind = flight.KindQuery
		ev.Unix = start.UnixNano()
		ev.Client = peerTCPAddr(conn.RemoteAddr())
		ev.Name = s.zone
		resp := s.handle(buf[:n], ev)
		good := resp != nil && ev.Flags&flight.FlagErr == 0
		if resp != nil {
			binary.BigEndian.PutUint16(lenb[:], uint16(len(resp)))
			if _, err := conn.Write(lenb[:]); err == nil {
				_, err = conn.Write(resp)
				if err != nil {
					good = false
				}
			} else {
				good = false
			}
			if !good {
				s.dropped.Inc()
				ev.Flags |= flight.FlagErr
				ev.Detail = "tcp response write failed"
			}
		}
		d := time.Since(start)
		s.latency.Observe(d)
		s.wLatency.ObserveAt(start, d)
		if !good && resp != nil {
			s.wBad.IncAt(start)
		}
		ev.Latency = d
		s.events.RecordOwned(ev)
		if resp == nil {
			return // malformed over TCP: counted by handle, drop the conn
		}
	}
}

// peerTCPAddr extracts the peer's IPv4 address for the wide event (0
// when the peer is not TCP/IPv4).
func peerTCPAddr(a net.Addr) netaddr.Addr {
	t, ok := a.(*net.TCPAddr)
	if !ok {
		return 0
	}
	ip := t.IP.To4()
	if ip == nil {
		return 0
	}
	return netaddr.MakeAddr(ip[0], ip[1], ip[2], ip[3])
}
