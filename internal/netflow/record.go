// Package netflow implements the Cisco NetFlow V5 export format: the
// traffic-log representation the paper's observed reports and blocking
// analysis are computed from (§6.1). It provides the 48-byte record and
// 24-byte header codecs, a streaming reader/writer for packed export
// datagram streams, and the payload-bearing classification rule.
package netflow

import (
	"fmt"
	"time"

	"unclean/internal/netaddr"
)

// IP protocol numbers used by the analyses.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// TCP flag bits as accumulated in the NetFlow tcp_flags field (OR of all
// flags seen on the flow).
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Time is a flow timestamp: Unix nanoseconds in UTC. It is plain data,
// so a Record holds no pointer and a record buffer is memory the garbage
// collector neither scans nor zeroes. Times compare and offset with
// integer operators (a < b, t + Time(d), time.Duration(a - b)). Every
// time a record can hold fits: int64 nanoseconds cover the years
// 1678–2262, synthesized flows fall in 2006, and a decoded V5 record is
// its header's 32-bit Unix seconds (up to 2106) give or take 49.7 days
// of 32-bit uptime.
type Time int64

// TimeOf returns t as a Time.
func TimeOf(t time.Time) Time { return Time(t.UnixNano()) }

// UTC returns t as a time.Time in UTC.
func (t Time) UTC() time.Time { return time.Unix(0, int64(t)).UTC() }

// Record is one unidirectional flow: a log of all identically addressed
// packets within a limited time (§6.1). Fields mirror NetFlow V5. A
// Record is 56 bytes of plain data, the size of its spill-segment
// encoding (segment.go), which stores every field as the record holds
// it, timestamps included.
type Record struct {
	SrcAddr  netaddr.Addr
	DstAddr  netaddr.Addr
	NextHop  netaddr.Addr
	Input    uint16 // SNMP ifIndex in
	Output   uint16 // SNMP ifIndex out
	Packets  uint32
	Octets   uint32
	First    Time // time of the first packet
	Last     Time // time of the last packet
	SrcPort  uint16
	DstPort  uint16
	TCPFlags uint8 // cumulative OR of TCP flags
	Proto    uint8
	TOS      uint8
	SrcAS    uint16
	DstAS    uint16
	SrcMask  uint8
	DstMask  uint8
}

// ipTCPHeaderBytes is the minimum per-packet overhead of an IPv4+TCP
// header without options. The paper's payload measure is octets beyond
// this floor, which means TCP options count as "payload" — exactly the
// artifact that creates the 36-byte SYN-scan ambiguity discussed in §6.1.
const ipTCPHeaderBytes = 40

// minPayload is the payload-bearing threshold from §6.1: "at least 36
// bytes of payload and at least one ACK flag".
const minPayload = 36

// PayloadBytes estimates the bytes of the flow beyond minimal IP+TCP
// headers. It never returns a negative value.
func (r *Record) PayloadBytes() uint32 {
	overhead := r.Packets * ipTCPHeaderBytes
	if r.Octets <= overhead {
		return 0
	}
	return r.Octets - overhead
}

// PayloadBearing implements the §6.1 rule: a TCP flow with at least 36
// bytes of payload and at least one ACK flag. SYN-only scans whose TCP
// options push them past 36 bytes fail the ACK requirement.
func (r *Record) PayloadBearing() bool {
	return r.Proto == ProtoTCP &&
		r.TCPFlags&FlagACK != 0 &&
		r.PayloadBytes() >= minPayload
}

// Validate checks internal consistency: a flow must carry at least one
// packet, at least as many octets as packets, and must not end before it
// starts.
func (r *Record) Validate() error {
	if r.Packets == 0 {
		return fmt.Errorf("netflow: flow with zero packets")
	}
	if r.Octets < r.Packets {
		return fmt.Errorf("netflow: %d octets < %d packets", r.Octets, r.Packets)
	}
	if r.Last < r.First {
		return fmt.Errorf("netflow: flow ends %v before it starts %v", r.Last.UTC(), r.First.UTC())
	}
	return nil
}

// String renders the record in a compact flowcat-style line.
func (r *Record) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d proto=%d pkts=%d bytes=%d flags=%s %s",
		r.SrcAddr, r.SrcPort, r.DstAddr, r.DstPort, r.Proto,
		r.Packets, r.Octets, FlagString(r.TCPFlags),
		r.First.UTC().Format("2006-01-02T15:04:05Z"))
}

// FlagString renders TCP flags as the conventional "SA" style letters,
// or "-" when none are set.
func FlagString(flags uint8) string {
	if flags == 0 {
		return "-"
	}
	letters := []struct {
		bit  uint8
		name byte
	}{
		{FlagURG, 'U'}, {FlagACK, 'A'}, {FlagPSH, 'P'},
		{FlagRST, 'R'}, {FlagSYN, 'S'}, {FlagFIN, 'F'},
	}
	var out []byte
	for _, l := range letters {
		if flags&l.bit != 0 {
			out = append(out, l.name)
		}
	}
	return string(out)
}
