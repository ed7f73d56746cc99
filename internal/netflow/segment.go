package netflow

import (
	"encoding/binary"
	"fmt"

	"unclean/internal/netaddr"
)

// Spill-segment record codec: the compact fixed-width binary form flow
// records take when a synthesized day spills to its hour segments on
// disk. Unlike the V5 export encoding, whose timestamps are milliseconds
// of 32-bit exporter uptime, this form is lossless: it stores every
// field as the Record holds it, timestamps as their Unix nanoseconds, in
// the record's own 56 bytes, so a record survives a disk round trip
// unchanged.
//
// Layout (little-endian, 56 bytes):
//
//	0  SrcAddr u32      20 Octets u32       44 SrcAS u16
//	4  DstAddr u32      24 First  i64 (ns)  46 DstAS u16
//	8  NextHop u32      32 Last   i64 (ns)  48 SrcMask u8
//	12 Input   u16      40 SrcPort u16      49 DstMask u8
//	14 Output  u16      42 DstPort u16      50 TCPFlags u8
//	16 Packets u32                          51 Proto u8
//	                                        52 TOS u8
//	                                        53-55 zero padding

// SegmentRecordSize is the fixed encoded size of one spill record.
const SegmentRecordSize = 56

var segLE = binary.LittleEndian

// EncodeSegmentRecord writes r into buf, which must hold at least
// SegmentRecordSize bytes.
func EncodeSegmentRecord(buf []byte, r *Record) {
	_ = buf[SegmentRecordSize-1]
	segLE.PutUint32(buf[0:], uint32(r.SrcAddr))
	segLE.PutUint32(buf[4:], uint32(r.DstAddr))
	segLE.PutUint32(buf[8:], uint32(r.NextHop))
	segLE.PutUint16(buf[12:], r.Input)
	segLE.PutUint16(buf[14:], r.Output)
	segLE.PutUint32(buf[16:], r.Packets)
	segLE.PutUint32(buf[20:], r.Octets)
	segLE.PutUint64(buf[24:], uint64(r.First))
	segLE.PutUint64(buf[32:], uint64(r.Last))
	segLE.PutUint16(buf[40:], r.SrcPort)
	segLE.PutUint16(buf[42:], r.DstPort)
	segLE.PutUint16(buf[44:], r.SrcAS)
	segLE.PutUint16(buf[46:], r.DstAS)
	buf[48] = r.SrcMask
	buf[49] = r.DstMask
	buf[50] = r.TCPFlags
	buf[51] = r.Proto
	buf[52] = r.TOS
	buf[53], buf[54], buf[55] = 0, 0, 0
}

// DecodeSegmentRecord parses one spill record from buf: the record that
// was encoded, field for field.
func DecodeSegmentRecord(buf []byte, r *Record) error {
	if len(buf) < SegmentRecordSize {
		return fmt.Errorf("netflow: segment record truncated: %d bytes", len(buf))
	}
	r.SrcAddr = netaddr.Addr(segLE.Uint32(buf[0:]))
	r.DstAddr = netaddr.Addr(segLE.Uint32(buf[4:]))
	r.NextHop = netaddr.Addr(segLE.Uint32(buf[8:]))
	r.Input = segLE.Uint16(buf[12:])
	r.Output = segLE.Uint16(buf[14:])
	r.Packets = segLE.Uint32(buf[16:])
	r.Octets = segLE.Uint32(buf[20:])
	r.First = Time(segLE.Uint64(buf[24:]))
	r.Last = Time(segLE.Uint64(buf[32:]))
	r.SrcPort = segLE.Uint16(buf[40:])
	r.DstPort = segLE.Uint16(buf[42:])
	r.SrcAS = segLE.Uint16(buf[44:])
	r.DstAS = segLE.Uint16(buf[46:])
	r.SrcMask = buf[48]
	r.DstMask = buf[49]
	r.TCPFlags = buf[50]
	r.Proto = buf[51]
	r.TOS = buf[52]
	return nil
}
