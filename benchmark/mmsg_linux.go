package main

import (
	"net"
	"syscall"
	"unsafe"
)

// The generator moves its datagrams with recvmmsg and sendmmsg, as the
// daemon does: a syscall per datagram would cost it as much CPU per
// query as the daemon spends answering it, and a generator that busy
// measures itself.

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// length the kernel moved, padded to 8 bytes.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgConn moves batches of datagrams over a connected UDP socket.
type mmsgConn struct {
	rc    syscall.RawConn
	rbuf  [][]byte // one receive buffer per slot
	rhdrs []mmsghdr
	riovs []syscall.Iovec
	shdrs []mmsghdr
	siovs []syscall.Iovec
	got   [][]byte
}

func newMmsgConn(conn *net.UDPConn, slots int) (*mmsgConn, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	c := &mmsgConn{rc: rc, rbuf: make([][]byte, slots), rhdrs: make([]mmsghdr, slots),
		riovs: make([]syscall.Iovec, slots), shdrs: make([]mmsghdr, slots), siovs: make([]syscall.Iovec, slots)}
	for i := range c.rbuf {
		c.rbuf[i] = make([]byte, 1500)
		c.riovs[i].Base = &c.rbuf[i][0]
		c.riovs[i].SetLen(len(c.rbuf[i]))
		c.rhdrs[i].hdr.Iov = &c.riovs[i]
		c.rhdrs[i].hdr.Iovlen = 1
	}
	return c, nil
}

// recv waits, until the socket's read deadline, for at least one
// datagram and returns the datagrams then queued, up to one per slot.
// They stay valid until the next call.
func (c *mmsgConn) recv() ([][]byte, error) {
	var n int
	var errno syscall.Errno
	err := c.rc.Read(func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd, uintptr(unsafe.Pointer(&c.rhdrs[0])), uintptr(len(c.rhdrs)), 0, 0, 0)
		n, errno = int(r), e
		return errno != syscall.EAGAIN
	})
	if err != nil {
		return nil, err
	}
	if errno == syscall.EINTR {
		return nil, nil
	}
	if errno != 0 {
		return nil, errno
	}
	c.got = c.got[:0]
	for i := 0; i < n; i++ {
		c.got = append(c.got, c.rbuf[i][:c.rhdrs[i].n])
	}
	return c.got, nil
}

// send sends every datagram in qs, in as many sendmmsg calls as it takes.
func (c *mmsgConn) send(qs [][]byte) error {
	for i, q := range qs {
		c.siovs[i].Base = &q[0]
		c.siovs[i].SetLen(len(q))
		c.shdrs[i].hdr.Iov = &c.siovs[i]
		c.shdrs[i].hdr.Iovlen = 1
	}
	for sent := 0; sent < len(qs); {
		var n int
		var errno syscall.Errno
		err := c.rc.Write(func(fd uintptr) bool {
			r, _, e := syscall.Syscall6(sysSendmmsg, fd, uintptr(unsafe.Pointer(&c.shdrs[sent])), uintptr(len(qs)-sent), 0, 0, 0)
			n, errno = int(r), e
			return errno != syscall.EAGAIN
		})
		if err != nil {
			return err
		}
		switch errno {
		case 0:
			sent += n
		case syscall.EINTR:
		default:
			return errno
		}
	}
	return nil
}
