package dnsbl

import (
	"errors"
	"net"

	"unclean/internal/netaddr"
	"unclean/internal/obs/flight"
)

// batchMsg is one datagram slot in a shard's reusable batch. The in/out
// byte slices are fixed windows into the shard's buffer arenas —
// allocated once at shard construction and rewritten every batch, never
// reallocated — so a full receive→handle→send cycle touches the
// allocator only for the (amortized, sampled) flight events.
type batchMsg struct {
	in   []byte // request slot (maxMessage bytes)
	inN  int    // request length for this batch
	out  []byte // response slot (outSlotSize bytes)
	outN int    // response length; 0 = nothing to send

	// peer is the reply address on the portable path; the mmsg path
	// leaves it nil and echoes the raw sockaddr it received instead.
	peer net.Addr
	// client is the peer's IPv4 address when known (wide events).
	client netaddr.Addr

	// ev is the packet's pending wide event, recorded after the batch
	// is sent so it can carry latency and send-failure flags. nil for
	// unsampled healthy fast-path packets.
	ev *flight.Event
	// sendShed marks a response abandoned on a transient send fault
	// (socket buffer pressure, injected loss) — the send-side shed
	// valve. sendErr marks a response lost to a hard write error.
	sendShed, sendErr bool
}

// batchIO abstracts batched datagram I/O so one shard loop runs over
// recvmmsg/sendmmsg syscalls on Linux and over any net.PacketConn
// elsewhere — including the fault-injecting conns the chaos tests wrap
// around real sockets. Implementations are single-shard: they are
// called from exactly one goroutine and may pre-wire internal state to
// the msgs slice handed to newBatcher.
type batchIO interface {
	// ReadBatch blocks until at least one datagram is available and
	// fills message slots from the front of ms, returning the count.
	ReadBatch(ms []batchMsg) (int, error)
	// WriteBatch sends every slot in ms with outN > 0, marking
	// per-slot send faults in sendShed/sendErr. The returned error is
	// terminal (closed socket), not a per-message failure.
	WriteBatch(ms []batchMsg) error
	LocalAddr() net.Addr
	Close() error
}

// newBatcher picks the fastest batchIO for conn: the recvmmsg/sendmmsg
// implementation when the platform and socket support it, else the
// portable one-datagram-per-syscall fallback.
func newBatcher(conn net.PacketConn, ms []batchMsg) batchIO {
	if u, ok := conn.(*net.UDPConn); ok {
		if b := newMmsgBatcher(u, ms); b != nil {
			return b
		}
	}
	return &connBatcher{conn: conn}
}

// connBatcher is the portable fallback: one ReadFrom/WriteTo syscall
// per datagram over any net.PacketConn. Batches degenerate to size 1 on
// the read side — there is no portable way to ask "how many datagrams
// are queued" without deadline games — but the shard loop and the
// zero-copy encode still apply.
type connBatcher struct {
	conn net.PacketConn
}

func (b *connBatcher) ReadBatch(ms []batchMsg) (int, error) {
	m := &ms[0]
	n, peer, err := b.conn.ReadFrom(m.in)
	if err != nil {
		return 0, err
	}
	m.inN = n
	m.peer = peer
	m.client = peerAddr(peer)
	return 1, nil
}

func (b *connBatcher) WriteBatch(ms []batchMsg) error {
	for i := range ms {
		m := &ms[i]
		if m.outN == 0 {
			continue
		}
		if _, err := b.conn.WriteTo(m.out[:m.outN], m.peer); err != nil {
			if errors.Is(err, net.ErrClosed) {
				// Nothing left in the batch can go out either; mark it
				// all, as the mmsg path does, so every lost response
				// is counted.
				for j := i; j < len(ms); j++ {
					ms[j].sendErr = ms[j].outN > 0
				}
				return err
			}
			var nerr net.Error
			if errors.As(err, &nerr) && (nerr.Timeout() || isTemporary(nerr)) {
				m.sendShed = true
				continue
			}
			m.sendErr = true
		}
	}
	return nil
}

func (b *connBatcher) LocalAddr() net.Addr { return b.conn.LocalAddr() }
func (b *connBatcher) Close() error        { return b.conn.Close() }

// isTemporary reports the deprecated-but-still-signaled Temporary
// facet; the faults package and kernel ENOBUFS both carry it.
func isTemporary(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}
