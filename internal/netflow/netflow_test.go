package netflow

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"unclean/internal/netaddr"
)

var boot = time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)

func tcpFlow(src, dst string, pkts, octets uint32, flags uint8) Record {
	return Record{
		SrcAddr:  netaddr.MustParseAddr(src),
		DstAddr:  netaddr.MustParseAddr(dst),
		Packets:  pkts,
		Octets:   octets,
		First:    TimeOf(boot.Add(time.Minute)),
		Last:     TimeOf(boot.Add(2 * time.Minute)),
		SrcPort:  40000,
		DstPort:  80,
		TCPFlags: flags,
		Proto:    ProtoTCP,
	}
}

func TestPayloadBytes(t *testing.T) {
	cases := []struct {
		pkts, octets, want uint32
	}{
		{1, 40, 0},   // bare header
		{1, 39, 0},   // undersized (clamped)
		{1, 76, 36},  // exactly threshold
		{3, 120, 0},  // 3-packet handshake, no payload
		{3, 156, 36}, // 3 packets with 36 option bytes
		{10, 1500, 1100},
	}
	for _, c := range cases {
		r := Record{Packets: c.pkts, Octets: c.octets}
		if got := r.PayloadBytes(); got != c.want {
			t.Errorf("PayloadBytes(pkts=%d, octets=%d) = %d, want %d", c.pkts, c.octets, got, c.want)
		}
	}
}

func TestPayloadBearing(t *testing.T) {
	// The §6.1 rule: TCP, >= 36 payload bytes, ACK seen.
	ok := tcpFlow("1.2.3.4", "5.6.7.8", 4, 500, FlagSYN|FlagACK|FlagPSH)
	if !ok.PayloadBearing() {
		t.Error("full TCP session should be payload-bearing")
	}
	// The 36-byte SYN-only scan from the paper: payload threshold met via
	// TCP options but no ACK — must NOT be payload-bearing.
	synScan := tcpFlow("1.2.3.4", "5.6.7.8", 3, 156, FlagSYN)
	if synScan.PayloadBearing() {
		t.Error("SYN-only scan must not be payload-bearing")
	}
	thin := tcpFlow("1.2.3.4", "5.6.7.8", 2, 100, FlagSYN|FlagACK)
	if thin.PayloadBearing() {
		t.Error("sub-threshold payload must not be payload-bearing")
	}
	udp := tcpFlow("1.2.3.4", "5.6.7.8", 4, 500, FlagACK)
	udp.Proto = ProtoUDP
	if udp.PayloadBearing() {
		t.Error("UDP flow must not be payload-bearing")
	}
}

func TestValidate(t *testing.T) {
	good := tcpFlow("1.2.3.4", "5.6.7.8", 4, 500, FlagACK)
	if err := good.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	zero := good
	zero.Packets = 0
	if zero.Validate() == nil {
		t.Error("zero-packet flow accepted")
	}
	tiny := good
	tiny.Octets = 2
	if tiny.Validate() == nil {
		t.Error("octets < packets accepted")
	}
	backwards := good
	backwards.Last = backwards.First - Time(time.Second)
	if backwards.Validate() == nil {
		t.Error("time-reversed flow accepted")
	}
}

func TestFlagString(t *testing.T) {
	cases := map[uint8]string{
		0:                           "-",
		FlagSYN:                     "S",
		FlagSYN | FlagACK:           "AS",
		FlagFIN | FlagACK | FlagPSH: "APF",
		FlagURG | FlagRST:           "UR",
	}
	for flags, want := range cases {
		if got := FlagString(flags); got != want {
			t.Errorf("FlagString(%#x) = %q, want %q", flags, got, want)
		}
	}
}

func TestRecordString(t *testing.T) {
	rec := tcpFlow("1.2.3.4", "5.6.7.8", 4, 500, FlagACK)
	s := rec.String()
	for _, want := range []string{"1.2.3.4:40000", "5.6.7.8:80", "pkts=4", "flags=A"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

// TestRecordIsPlainData holds Record to the size of its segment
// encoding and to fields that hold no pointer, so a flow log stays memory
// the garbage collector neither scans nor zeroes.
func TestRecordIsPlainData(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != SegmentRecordSize {
		t.Errorf("Record is %d bytes, want %d", got, SegmentRecordSize)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		default:
			t.Errorf("%s is a %s, which can hold a pointer", path, typ.Kind())
		}
	}
	walk("Record", reflect.TypeOf(Record{}))
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Count:        7,
		SysUptime:    123456,
		ExportTime:   boot.Add(time.Hour),
		FlowSequence: 99,
		EngineType:   1,
		EngineID:     2,
	}
	var buf [HeaderSize]byte
	MarshalHeader(buf[:], &h)
	got, err := UnmarshalHeader(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != h.Count || got.SysUptime != h.SysUptime ||
		!got.ExportTime.Equal(h.ExportTime) || got.FlowSequence != h.FlowSequence ||
		got.EngineType != 1 || got.EngineID != 2 {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

func TestUnmarshalHeaderRejects(t *testing.T) {
	var buf [HeaderSize]byte
	if _, err := UnmarshalHeader(buf[:10]); err == nil {
		t.Error("short buffer accepted")
	}
	MarshalHeader(buf[:], &Header{Count: 1, ExportTime: boot})
	buf[0], buf[1] = 0, 9 // version 9
	if _, err := UnmarshalHeader(buf[:]); err == nil {
		t.Error("wrong version accepted")
	}
	MarshalHeader(buf[:], &Header{Count: 0, ExportTime: boot})
	if _, err := UnmarshalHeader(buf[:]); err == nil {
		t.Error("zero count accepted")
	}
	MarshalHeader(buf[:], &Header{Count: 31, ExportTime: boot})
	if _, err := UnmarshalHeader(buf[:]); err == nil {
		t.Error("count > 30 accepted")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var out bytes.Buffer
	w := NewWriter(&out, boot)
	var want []Record
	for i := 0; i < 95; i++ { // 3 full packets + 1 short
		r := tcpFlow("10.0.0.1", "20.0.0.2", uint32(i+1), uint32(100*(i+1)), FlagSYN|FlagACK)
		r.SrcAddr = netaddr.Addr(uint32(r.SrcAddr) + uint32(i))
		r.First = TimeOf(boot.Add(time.Duration(i) * time.Second))
		r.Last = r.First + Time(500*time.Millisecond)
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.sequence != 95 {
		t.Fatalf("sequence = %d, want 95", w.sequence)
	}
	got, err := readAll(NewReader(&out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, ww := got[i], want[i]
		if g.SrcAddr != ww.SrcAddr || g.DstAddr != ww.DstAddr ||
			g.Packets != ww.Packets || g.Octets != ww.Octets ||
			g.TCPFlags != ww.TCPFlags || g.Proto != ww.Proto ||
			g.First != ww.First || g.Last != ww.Last {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, g, ww)
		}
	}
}

func TestRecordCodecQuick(t *testing.T) {
	f := func(src, dst uint32, pkts uint16, extra uint16, sport, dport uint16, flags, proto, tos uint8, firstMs, durMs uint16) bool {
		r := Record{
			SrcAddr:  netaddr.Addr(src),
			DstAddr:  netaddr.Addr(dst),
			Packets:  uint32(pkts) + 1,
			Octets:   (uint32(pkts) + 1) + uint32(extra),
			First:    TimeOf(boot.Add(time.Duration(firstMs) * time.Millisecond)),
			SrcPort:  sport,
			DstPort:  dport,
			TCPFlags: flags,
			Proto:    proto,
			TOS:      tos,
		}
		r.Last = r.First + Time(time.Duration(durMs)*time.Millisecond)
		var buf [RecordSize]byte
		marshalRecord(buf[:], &r, TimeOf(boot))
		got := unmarshalRecord(buf[:], TimeOf(boot))
		return got.SrcAddr == r.SrcAddr && got.DstAddr == r.DstAddr &&
			got.Packets == r.Packets && got.Octets == r.Octets &&
			got.First == r.First && got.Last == r.Last &&
			got.SrcPort == r.SrcPort && got.DstPort == r.DstPort &&
			got.TCPFlags == r.TCPFlags && got.Proto == r.Proto && got.TOS == r.TOS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w := NewWriter(io.Discard, boot)
	bad := tcpFlow("1.2.3.4", "5.6.7.8", 0, 0, 0)
	if err := w.Write(bad); err == nil {
		t.Error("invalid record accepted")
	}
	early := tcpFlow("1.2.3.4", "5.6.7.8", 1, 40, 0)
	early.First = TimeOf(boot.Add(-time.Hour))
	early.Last = early.First
	if err := w.Write(early); err == nil {
		t.Error("pre-boot record accepted")
	}
}

// TestWriterRejectsPastUptime writes records on both sides of boot +
// 2^32 ms. In one datagram the uptime fields would wrap, and the earlier
// record would read back 49.7 days late.
func TestWriterRejectsPastUptime(t *testing.T) {
	var out bytes.Buffer
	w := NewWriter(&out, boot)
	limit := boot.Add(1 << 32 * time.Millisecond)
	before := tcpFlow("1.2.3.4", "5.6.7.8", 1, 40, FlagSYN)
	before.First = TimeOf(limit.Add(-time.Hour))
	before.Last = TimeOf(limit.Add(-time.Millisecond))
	if err := w.Write(before); err != nil {
		t.Fatal(err)
	}
	after := before
	after.First = TimeOf(limit.Add(-time.Minute))
	after.Last = TimeOf(limit)
	if err := w.Write(after); err == nil {
		t.Error("record ending 2^32 ms after boot accepted")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(NewReader(&out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("read back %d records, want 1", len(got))
	}
	if got[0].First != before.First || got[0].Last != before.Last {
		t.Fatalf("record reads back as %v-%v, written as %v-%v", got[0].First, got[0].Last, before.First, before.Last)
	}
}

func TestReaderTruncation(t *testing.T) {
	var out bytes.Buffer
	w := NewWriter(&out, boot)
	if err := w.Write(tcpFlow("1.2.3.4", "5.6.7.8", 1, 40, FlagSYN)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := out.Bytes()
	// Truncate mid-record.
	r := NewReader(bytes.NewReader(full[:len(full)-10]))
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: err = %v, want ErrUnexpectedEOF", err)
	}
	// Truncate mid-header.
	r = NewReader(bytes.NewReader(full[:10]))
	if _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header: err = %v, want ErrUnexpectedEOF", err)
	}
	// Clean EOF.
	r = NewReader(bytes.NewReader(nil))
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream: err = %v, want EOF", err)
	}
}

func TestWriteAfterErrorSticks(t *testing.T) {
	w := NewWriter(failWriter{}, boot)
	var err error
	for i := 0; i < MaxPerPacket; i++ {
		err = w.Write(tcpFlow("1.2.3.4", "5.6.7.8", 1, 40, FlagSYN))
	}
	if err == nil {
		t.Fatal("write to failing writer succeeded")
	}
	if err2 := w.Write(tcpFlow("1.2.3.4", "5.6.7.8", 1, 40, FlagSYN)); err2 == nil {
		t.Fatal("writer did not stick its error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// readAll drains r into a slice.
func readAll(r *Reader) ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
