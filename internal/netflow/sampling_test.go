package netflow

import (
	"math"
	"testing"
	"time"

	"unclean/internal/stats"
)

func sampleInput(n int, pkts uint32) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			SrcAddr: 1, DstAddr: 2,
			Packets: pkts, Octets: pkts * 100,
			First: TimeOf(boot.Add(time.Duration(i) * time.Second)),
			Last:  TimeOf(boot.Add(time.Duration(i)*time.Second + time.Second)),
			Proto: ProtoTCP, TCPFlags: FlagSYN | FlagACK,
		}
	}
	return out
}

func TestSampleRecordsIdentity(t *testing.T) {
	in := sampleInput(50, 10)
	out, err := SampleRecords(in, 1, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("interval 1 dropped records: %d vs %d", len(out), len(in))
	}
	// Identity sampling must not alias the input.
	out[0].Packets = 999
	if in[0].Packets == 999 {
		t.Fatal("SampleRecords(1) shares storage with input")
	}
}

func TestSampleRecordsThinsSmallFlows(t *testing.T) {
	rng := stats.NewRNG(2)
	// 2-packet scan probes under 1-in-100 sampling: ~98% vanish.
	in := sampleInput(5000, 2)
	out, err := SampleRecords(in, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(len(out)) / float64(len(in))
	if frac > 0.06 {
		t.Errorf("small-flow survival %.3f, want ~0.02", frac)
	}
	// Big flows survive: 1000-packet transfers almost always sampled.
	big := sampleInput(500, 1000)
	outBig, err := SampleRecords(big, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if survival := float64(len(outBig)) / float64(len(big)); survival < 0.99 {
		t.Errorf("large-flow survival %.3f, want ~1", survival)
	}
}

func TestSampleRecordsCountsShrink(t *testing.T) {
	rng := stats.NewRNG(3)
	in := sampleInput(2000, 64)
	out, err := SampleRecords(in, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	var totalPkts float64
	for i := range out {
		r := &out[i]
		if r.Packets == 0 || r.Packets > 64 {
			t.Fatalf("sampled packets %d out of range", r.Packets)
		}
		if r.Octets < r.Packets {
			t.Fatalf("octets %d below packets %d", r.Octets, r.Packets)
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		totalPkts += float64(r.Packets)
	}
	// Expected sampled packets per flow: 64/8 = 8.
	mean := totalPkts / float64(len(out))
	if math.Abs(mean-8) > 0.5 {
		t.Errorf("mean sampled packets %.2f, want ~8", mean)
	}
}

func TestSampleRecordsRejectsBadInterval(t *testing.T) {
	if _, err := SampleRecords(nil, 0, stats.NewRNG(1)); err == nil {
		t.Fatal("interval 0 accepted")
	}
}
