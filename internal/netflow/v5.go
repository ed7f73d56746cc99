package netflow

import (
	"encoding/binary"
	"fmt"
	"time"

	"unclean/internal/netaddr"
)

// NetFlow V5 wire format constants.
const (
	Version      = 5
	HeaderSize   = 24
	RecordSize   = 48
	MaxPerPacket = 30 // V5 export datagrams carry at most 30 records
)

// Header is the 24-byte NetFlow V5 export datagram header.
type Header struct {
	Count            uint16    // records in this datagram
	SysUptime        uint32    // ms since exporter boot
	ExportTime       time.Time // unix_secs + unix_nsecs
	FlowSequence     uint32    // sequence counter of total flows seen
	EngineType       uint8
	EngineID         uint8
	SamplingInterval uint16
}

// bootTime reconstructs the exporter's boot instant from the header's
// export time and uptime; record First/Last are relative to it.
func (h *Header) bootTime() Time {
	return TimeOf(h.ExportTime) - Time(time.Duration(h.SysUptime)*time.Millisecond)
}

// MarshalHeader encodes h into buf, which must be at least HeaderSize
// bytes. It returns the number of bytes written.
func MarshalHeader(buf []byte, h *Header) int {
	be := binary.BigEndian
	be.PutUint16(buf[0:], Version)
	be.PutUint16(buf[2:], h.Count)
	be.PutUint32(buf[4:], h.SysUptime)
	be.PutUint32(buf[8:], uint32(h.ExportTime.Unix()))
	be.PutUint32(buf[12:], uint32(h.ExportTime.Nanosecond()))
	be.PutUint32(buf[16:], h.FlowSequence)
	buf[20] = h.EngineType
	buf[21] = h.EngineID
	be.PutUint16(buf[22:], h.SamplingInterval)
	return HeaderSize
}

// UnmarshalHeader decodes a header from buf, validating the version.
func UnmarshalHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderSize {
		return Header{}, fmt.Errorf("netflow: short header: %d bytes", len(buf))
	}
	be := binary.BigEndian
	if v := be.Uint16(buf[0:]); v != Version {
		return Header{}, fmt.Errorf("netflow: unsupported version %d", v)
	}
	h := Header{
		Count:            be.Uint16(buf[2:]),
		SysUptime:        be.Uint32(buf[4:]),
		ExportTime:       time.Unix(int64(be.Uint32(buf[8:])), int64(be.Uint32(buf[12:]))).UTC(),
		FlowSequence:     be.Uint32(buf[16:]),
		EngineType:       buf[20],
		EngineID:         buf[21],
		SamplingInterval: be.Uint16(buf[22:]),
	}
	if h.Count == 0 || h.Count > MaxPerPacket {
		return Header{}, fmt.Errorf("netflow: implausible record count %d", h.Count)
	}
	return h, nil
}

// marshalRecord encodes r into buf (>= RecordSize bytes) with First/Last
// expressed as sysUptime milliseconds relative to boot.
func marshalRecord(buf []byte, r *Record, boot Time) {
	be := binary.BigEndian
	be.PutUint32(buf[0:], uint32(r.SrcAddr))
	be.PutUint32(buf[4:], uint32(r.DstAddr))
	be.PutUint32(buf[8:], uint32(r.NextHop))
	be.PutUint16(buf[12:], r.Input)
	be.PutUint16(buf[14:], r.Output)
	be.PutUint32(buf[16:], r.Packets)
	be.PutUint32(buf[20:], r.Octets)
	be.PutUint32(buf[24:], uint32(time.Duration(r.First-boot)/time.Millisecond))
	be.PutUint32(buf[28:], uint32(time.Duration(r.Last-boot)/time.Millisecond))
	be.PutUint16(buf[32:], r.SrcPort)
	be.PutUint16(buf[34:], r.DstPort)
	buf[36] = 0 // pad1
	buf[37] = r.TCPFlags
	buf[38] = r.Proto
	buf[39] = r.TOS
	be.PutUint16(buf[40:], r.SrcAS)
	be.PutUint16(buf[42:], r.DstAS)
	buf[44] = r.SrcMask
	buf[45] = r.DstMask
	buf[46], buf[47] = 0, 0 // pad2
}

// unmarshalRecord decodes one record from buf using boot to resolve
// absolute times.
func unmarshalRecord(buf []byte, boot Time) Record {
	be := binary.BigEndian
	return Record{
		SrcAddr:  netaddr.Addr(be.Uint32(buf[0:])),
		DstAddr:  netaddr.Addr(be.Uint32(buf[4:])),
		NextHop:  netaddr.Addr(be.Uint32(buf[8:])),
		Input:    be.Uint16(buf[12:]),
		Output:   be.Uint16(buf[14:]),
		Packets:  be.Uint32(buf[16:]),
		Octets:   be.Uint32(buf[20:]),
		First:    boot + Time(time.Duration(be.Uint32(buf[24:]))*time.Millisecond),
		Last:     boot + Time(time.Duration(be.Uint32(buf[28:]))*time.Millisecond),
		SrcPort:  be.Uint16(buf[32:]),
		DstPort:  be.Uint16(buf[34:]),
		TCPFlags: buf[37],
		Proto:    buf[38],
		TOS:      buf[39],
		SrcAS:    be.Uint16(buf[40:]),
		DstAS:    be.Uint16(buf[42:]),
		SrcMask:  buf[44],
		DstMask:  buf[45],
	}
}
