// Package dnsbl implements a DNS blocklist (DNSBL) in the Spamhaus ZEN
// style the paper cites as the operational state of the art (§2): a DNS
// zone where querying d.c.b.a.<zone> returns an A record in 127.0.0.0/8
// iff a.b.c.d is listed. The package provides the minimal DNS wire codec
// (A queries and answers, with compression-pointer decoding), a UDP
// server backed by a blocklist trie, and a query client — so an
// uncleanliness-derived list can be served to real mail and firewall
// software.
package dnsbl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// DNS constants used by the codec.
const (
	TypeA    = 1
	TypeTXT  = 16
	ClassIN  = 1
	RCodeOK  = 0
	RCodeFmt = 1
	// RCodeNXDomain is the not-listed answer.
	RCodeNXDomain = 3
	// maxMessage is the classic UDP DNS payload limit.
	maxMessage = 512
)

// Question is one DNS question.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// Answer is one resource record.
type Answer struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// Message is a DNS message restricted to what a DNSBL needs.
type Message struct {
	ID            uint16
	Response      bool
	Authoritative bool
	// Truncated is the TC bit: the responder had more data than the
	// transport allowed, and the client should retry over TCP.
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              uint8
	Questions          []Question
	Answers            []Answer
}

// Encode serializes the message. An answer name equal to the first
// question's name is a compression pointer to it; other names are
// written in full.
func (m *Message) Encode() ([]byte, error) {
	buf := make([]byte, 0, 128)
	var hdr [12]byte
	binary.BigEndian.PutUint16(hdr[0:], m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0x0f)
	binary.BigEndian.PutUint16(hdr[2:], flags)
	binary.BigEndian.PutUint16(hdr[4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(hdr[6:], uint16(len(m.Answers)))
	buf = append(buf, hdr[:]...)

	qOffset := -1
	for _, q := range m.Questions {
		if qOffset < 0 {
			qOffset = len(buf)
		}
		nb, err := encodeName(q.Name)
		if err != nil {
			return nil, err
		}
		buf = append(buf, nb...)
		buf = binary.BigEndian.AppendUint16(buf, q.Type)
		buf = binary.BigEndian.AppendUint16(buf, q.Class)
	}
	for _, a := range m.Answers {
		if qOffset >= 0 && a.Name == m.Questions[0].Name {
			buf = append(buf, 0xc0|byte(qOffset>>8), byte(qOffset))
		} else {
			nb, err := encodeName(a.Name)
			if err != nil {
				return nil, err
			}
			buf = append(buf, nb...)
		}
		buf = binary.BigEndian.AppendUint16(buf, a.Type)
		buf = binary.BigEndian.AppendUint16(buf, a.Class)
		buf = binary.BigEndian.AppendUint32(buf, a.TTL)
		if len(a.Data) > 0xffff {
			return nil, fmt.Errorf("dnsbl: rdata too long")
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.Data)))
		buf = append(buf, a.Data...)
	}
	if len(buf) > maxMessage {
		return nil, fmt.Errorf("dnsbl: message exceeds %d bytes", maxMessage)
	}
	return buf, nil
}

// Decode parses a DNS message's header, questions and answers. It
// ignores the authority and additional sections (NSCOUNT and ARCOUNT):
// a DNSBL exchange needs nothing from them, and dig sends an EDNS OPT
// record in the additional section by default. It refuses what Encode
// refuses, so every message it returns encodes back to itself.
func Decode(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("dnsbl: short message (%d bytes)", len(b))
	}
	m := &Message{ID: binary.BigEndian.Uint16(b[0:])}
	flags := binary.BigEndian.Uint16(b[2:])
	m.Response = flags&(1<<15) != 0
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = uint8(flags & 0x0f)
	qd := int(binary.BigEndian.Uint16(b[4:]))
	an := int(binary.BigEndian.Uint16(b[6:]))
	if qd > 4 || an > 16 {
		return nil, fmt.Errorf("dnsbl: implausible section counts qd=%d an=%d", qd, an)
	}
	off := 12
	size := 12 // the length Encode gives the message
	for i := 0; i < qd; i++ {
		name, next, err := decodeName(b, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(b) {
			return nil, fmt.Errorf("dnsbl: truncated question")
		}
		size += nameLen(name) + 4
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[next:]),
			Class: binary.BigEndian.Uint16(b[next+2:]),
		})
		off = next + 4
	}
	for i := 0; i < an; i++ {
		name, next, err := decodeName(b, off)
		if err != nil {
			return nil, err
		}
		if next+10 > len(b) {
			return nil, fmt.Errorf("dnsbl: truncated answer header")
		}
		a := Answer{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[next:]),
			Class: binary.BigEndian.Uint16(b[next+2:]),
			TTL:   binary.BigEndian.Uint32(b[next+4:]),
		}
		rdlen := int(binary.BigEndian.Uint16(b[next+8:]))
		next += 10
		if next+rdlen > len(b) {
			return nil, fmt.Errorf("dnsbl: truncated rdata")
		}
		a.Data = append([]byte(nil), b[next:next+rdlen]...)
		m.Answers = append(m.Answers, a)
		off = next + rdlen
		if qd > 0 && name == m.Questions[0].Name {
			size += 2 + 10 + rdlen
		} else {
			size += nameLen(name) + 10 + rdlen
		}
	}
	// Compression pointers let a small packet name more than Encode writes.
	if size > maxMessage {
		return nil, fmt.Errorf("dnsbl: message re-encodes to %d bytes, over %d", size, maxMessage)
	}
	return m, nil
}

// nameLen is len(encodeName(name)): a length byte per label, then a zero.
func nameLen(name string) int { return len(name) + 1 + min(len(name), 1) }

// encodeName converts "a.b.c" into DNS label format.
func encodeName(name string) ([]byte, error) {
	name = strings.TrimSuffix(name, ".")
	out := make([]byte, 0, len(name)+2)
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if label == "" {
				return nil, fmt.Errorf("dnsbl: empty label in %q", name)
			}
			if len(label) > 63 {
				return nil, fmt.Errorf("dnsbl: label too long in %q", name)
			}
			out = append(out, byte(len(label)))
			out = append(out, label...)
		}
	}
	if len(out) > 253 {
		return nil, fmt.Errorf("dnsbl: name too long %q", name)
	}
	return append(out, 0), nil
}

// decodeName parses a possibly-compressed name starting at off; it
// returns the dotted name and the offset just past the name's in-place
// encoding.
func decodeName(b []byte, off int) (string, int, error) {
	var labels []string
	next := -1 // offset after the first pointer, if any
	jumps, wire := 0, 0
	for {
		if off >= len(b) {
			return "", 0, fmt.Errorf("dnsbl: name runs past message end")
		}
		c := int(b[off])
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			return strings.Join(labels, "."), next, nil
		case c&0xc0 == 0xc0:
			if off+1 >= len(b) {
				return "", 0, fmt.Errorf("dnsbl: truncated compression pointer")
			}
			if jumps++; jumps > 8 {
				return "", 0, fmt.Errorf("dnsbl: compression pointer loop")
			}
			if next < 0 {
				next = off + 2
			}
			off = (c&0x3f)<<8 | int(b[off+1])
		case c&0xc0 != 0:
			return "", 0, fmt.Errorf("dnsbl: reserved label type %#x", c)
		default:
			if off+1+c > len(b) {
				return "", 0, fmt.Errorf("dnsbl: truncated label")
			}
			// What encodeName refuses: a dot would split the label when
			// the dotted name is read back, and a name past 253 bytes.
			label := b[off+1 : off+1+c]
			if bytes.IndexByte(label, '.') >= 0 {
				return "", 0, fmt.Errorf("dnsbl: dot inside label %q", label)
			}
			if wire += 1 + c; wire > 253 {
				return "", 0, fmt.Errorf("dnsbl: name longer than 253 bytes")
			}
			labels = append(labels, string(label))
			off += 1 + c
		}
	}
}
