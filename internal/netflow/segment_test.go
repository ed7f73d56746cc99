package netflow

import (
	"math"
	"testing"
	"time"

	"unclean/internal/netaddr"
)

// TestSegmentRoundTrip proves every field survives the spill encoding
// and that decoded timestamps compare Equal and format identically.
func TestSegmentRoundTrip(t *testing.T) {
	first := time.Date(2006, 10, 3, 14, 7, 9, 0, time.UTC)
	recs := []Record{
		{
			SrcAddr: netaddr.Addr(0x0a010203), DstAddr: netaddr.Addr(0xc0a80001),
			NextHop: netaddr.Addr(0xc0a800fe), Input: 3, Output: 7,
			Packets: 42, Octets: 9001,
			First: first, Last: first.Add(13 * time.Second),
			SrcPort: 51515, DstPort: 25,
			TCPFlags: FlagSYN | FlagACK | FlagPSH, Proto: ProtoTCP, TOS: 0x10,
			SrcAS: 65001, DstAS: 65002, SrcMask: 24, DstMask: 16,
		},
		{First: time.Unix(0, 0).UTC(), Last: time.Unix(0, 0).UTC()}, // minimal record
		{
			SrcAddr: netaddr.Addr(0xffffffff), DstAddr: netaddr.Addr(1),
			Packets: 1, Octets: 40,
			First: first.Add(-time.Hour), Last: first.Add(-time.Hour),
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
		if back.SrcAddr != recs[i].SrcAddr || back.DstAddr != recs[i].DstAddr ||
			back.NextHop != recs[i].NextHop || back.Input != recs[i].Input ||
			back.Output != recs[i].Output || back.Packets != recs[i].Packets ||
			back.Octets != recs[i].Octets || back.SrcPort != recs[i].SrcPort ||
			back.DstPort != recs[i].DstPort || back.TCPFlags != recs[i].TCPFlags ||
			back.Proto != recs[i].Proto || back.TOS != recs[i].TOS ||
			back.SrcAS != recs[i].SrcAS || back.DstAS != recs[i].DstAS ||
			back.SrcMask != recs[i].SrcMask || back.DstMask != recs[i].DstMask {
			t.Fatalf("record %d fields changed across round trip:\n got %+v\nwant %+v", i, back, recs[i])
		}
		if !back.First.Equal(recs[i].First) || !back.Last.Equal(recs[i].Last) {
			t.Fatalf("record %d times changed: got %v/%v, want %v/%v",
				i, back.First, back.Last, recs[i].First, recs[i].Last)
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

// TestSegmentRecordFirst checks the merge key read from the encoded
// bytes is the record's First, across the int64 range.
func TestSegmentRecordFirst(t *testing.T) {
	for _, ns := range []int64{0, 1, -1, 1159660800e9, math.MaxInt64, math.MinInt64} {
		r := Record{First: time.Unix(0, ns).UTC(), Last: time.Unix(0, 0).UTC(), SrcAddr: 7}
		var buf [SegmentRecordSize]byte
		EncodeSegmentRecord(buf[:], &r)
		if got := SegmentRecordFirst(buf[:]); got != ns {
			t.Fatalf("SegmentRecordFirst = %d, want %d", got, ns)
		}
	}
}
