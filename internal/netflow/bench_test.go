package netflow

import (
	"bytes"
	"testing"
	"time"

	"unclean/internal/netaddr"
)

func benchRecords(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			SrcAddr: netaddr.Addr(0x0a000001 + uint32(i)),
			DstAddr: netaddr.Addr(0x1e000001),
			Packets: 10, Octets: 2000,
			First:   TimeOf(boot.Add(time.Duration(i) * time.Millisecond)),
			Last:    TimeOf(boot.Add(time.Duration(i)*time.Millisecond + time.Second)),
			SrcPort: 4000, DstPort: 80,
			TCPFlags: FlagSYN | FlagACK, Proto: ProtoTCP,
		}
	}
	return out
}

func BenchmarkWriter(b *testing.B) {
	records := benchRecords(3000)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := NewWriter(&buf, boot)
		for j := range records {
			if err := w.Write(records[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(records)) * RecordSize)
}

func BenchmarkReader(b *testing.B) {
	records := benchRecords(3000)
	var buf bytes.Buffer
	w := NewWriter(&buf, boot)
	for j := range records {
		if err := w.Write(records[j]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	wire := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := readAll(NewReader(bytes.NewReader(wire)))
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(records) {
			b.Fatal("short read")
		}
	}
	b.SetBytes(int64(len(records)) * RecordSize)
}

func BenchmarkPayloadBearing(b *testing.B) {
	records := benchRecords(1000)
	count := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range records {
			if records[j].PayloadBearing() {
				count++
			}
		}
	}
	if count == 0 {
		b.Fatal("no payload-bearing records")
	}
}
