package netflow

import (
	"testing"
	"time"

	"unclean/internal/netaddr"
)

// TestSegmentRoundTrip proves every field survives the spill encoding
// and that decoded records render identically.
func TestSegmentRoundTrip(t *testing.T) {
	first := TimeOf(time.Date(2006, 10, 3, 14, 7, 9, 0, time.UTC))
	recs := []Record{
		{
			SrcAddr: netaddr.Addr(0x0a010203), DstAddr: netaddr.Addr(0xc0a80001),
			NextHop: netaddr.Addr(0xc0a800fe), Input: 3, Output: 7,
			Packets: 42, Octets: 9001,
			First: first, Last: first + Time(13*time.Second),
			SrcPort: 51515, DstPort: 25,
			TCPFlags: FlagSYN | FlagACK | FlagPSH, Proto: ProtoTCP, TOS: 0x10,
			SrcAS: 65001, DstAS: 65002, SrcMask: 24, DstMask: 16,
		},
		{First: 0, Last: 0}, // minimal record
		{
			SrcAddr: netaddr.Addr(0xffffffff), DstAddr: netaddr.Addr(1),
			Packets: 1, Octets: 40,
			First: first - Time(time.Hour), Last: first - Time(time.Hour),
			Proto: ProtoUDP,
		},
	}
	for i := range recs {
		var buf [SegmentRecordSize]byte
		EncodeSegmentRecord(buf[:], &recs[i])
		var back Record
		if err := DecodeSegmentRecord(buf[:], &back); err != nil {
			t.Fatal(err)
		}
		if back != recs[i] {
			t.Fatalf("record %d changed across round trip:\n got %+v\nwant %+v", i, back, recs[i])
		}
		if back.String() != recs[i].String() {
			t.Fatalf("record %d renders differently after round trip", i)
		}
	}
}

// TestSegmentDecodeTruncated checks short buffers error cleanly.
func TestSegmentDecodeTruncated(t *testing.T) {
	var r Record
	if err := DecodeSegmentRecord(make([]byte, SegmentRecordSize-1), &r); err == nil {
		t.Fatal("truncated buffer decoded without error")
	}
}
