package spamdetect

import (
	"math/rand/v2"
	"testing"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

var t0 = time.Date(2006, 10, 2, 9, 0, 0, 0, time.UTC)

func smtpFlow(src string, dstIdx int, payload uint32, delivered bool, at time.Time) netflow.Record {
	r := netflow.Record{
		SrcAddr: netaddr.MustParseAddr(src),
		DstAddr: netaddr.MakeAddr(30, 1, byte(dstIdx), 25),
		First:   netflow.TimeOf(at), Last: netflow.TimeOf(at.Add(5 * time.Second)),
		SrcPort: 3456, DstPort: SMTPPort, Proto: netflow.ProtoTCP,
	}
	if delivered {
		r.TCPFlags = netflow.FlagSYN | netflow.FlagACK | netflow.FlagPSH | netflow.FlagFIN
		r.Packets = 10
		r.Octets = 10*40 + payload
	} else {
		r.TCPFlags = netflow.FlagSYN | netflow.FlagRST
		r.Packets = 3
		r.Octets = 120
	}
	return r
}

func TestDetectFlagsSpammer(t *testing.T) {
	var records []netflow.Record
	// A bot delivering small template mail to 20 servers, half rejected.
	for i := 0; i < 20; i++ {
		records = append(records, smtpFlow("6.6.6.6", i, 900, i%2 == 0, t0.Add(time.Duration(i)*time.Minute)))
	}
	got, err := Detect(records, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(netaddr.MustParseAddr("6.6.6.6")) {
		t.Fatalf("spammers = %v", got)
	}
}

func TestDetectIgnoresLegitimateRelay(t *testing.T) {
	var records []netflow.Record
	// A real relay: many servers but nearly all delivered, large bodies.
	for i := 0; i < 30; i++ {
		records = append(records, smtpFlow("7.7.7.7", i, 60000, i != 0, t0.Add(time.Duration(i)*time.Minute)))
	}
	got, err := Detect(records, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("legitimate relay flagged: %v", got)
	}
}

func TestDetectIgnoresLowVolume(t *testing.T) {
	var records []netflow.Record
	// A personal mail server: few destinations.
	for i := 0; i < 5; i++ {
		records = append(records, smtpFlow("8.8.8.8", i, 500, i%2 == 0, t0.Add(time.Duration(i)*time.Minute)))
	}
	got, err := Detect(records, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("low-volume sender flagged: %v", got)
	}
}

func TestDetectIgnoresNonSMTP(t *testing.T) {
	var records []netflow.Record
	for i := 0; i < 30; i++ {
		r := smtpFlow("9.9.9.9", i, 500, false, t0)
		r.DstPort = 80
		records = append(records, r)
	}
	got, err := Detect(records, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("non-SMTP traffic flagged: %v", got)
	}
}

func TestDetectAllRejected(t *testing.T) {
	// A bot whose every delivery is refused still gets flagged (reject
	// ratio 1.0, zero delivered payload).
	var records []netflow.Record
	for i := 0; i < 15; i++ {
		records = append(records, smtpFlow("6.6.6.7", i, 0, false, t0.Add(time.Duration(i)*time.Minute)))
	}
	got, err := Detect(records, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("fully-rejected spammer not flagged: %v", got)
	}
}

func TestDetectMixedPopulation(t *testing.T) {
	var records []netflow.Record
	for i := 0; i < 20; i++ {
		records = append(records, smtpFlow("6.6.6.6", i, 900, i%2 == 0, t0))
		records = append(records, smtpFlow("7.7.7.7", i, 60000, true, t0))
	}
	got, err := Detect(records, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(netaddr.MustParseAddr("6.6.6.6")) {
		t.Fatalf("spammers = %v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MinServers: 0, MinFlows: 1, MaxAvgPayload: 1, MinRejectRatio: 0.1},
		{MinServers: 1, MinFlows: 0, MaxAvgPayload: 1, MinRejectRatio: 0.1},
		{MinServers: 1, MinFlows: 1, MaxAvgPayload: 0, MinRejectRatio: 0.1},
		{MinServers: 1, MinFlows: 1, MaxAvgPayload: 1, MinRejectRatio: 2},
	}
	for i, cfg := range bad {
		if _, err := Detect(nil, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestDetectorMergeProperty splits random SMTP record sets, with
// senders on both sides of every threshold and servers repeated across
// chunks, into arbitrary chunks over k accumulators, merges them in any
// order and compares with the whole slice.
func TestDetectorMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(20061001, 2))
	cfg := Config{MinServers: 4, MinFlows: 6, MaxAvgPayload: 1500, MinRejectRatio: 0.3}
	flagged := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.IntN(3000)
		recs := make([]netflow.Record, n)
		for i := range recs {
			src := netaddr.MakeAddr(60, 0, 0, byte(rng.IntN(1+trial))).String()
			recs[i] = smtpFlow(src, rng.IntN(12), uint32(rng.IntN(3000)), rng.IntN(2) == 0,
				t0.Add(time.Duration(rng.IntN(48*3600))*time.Second))
			if rng.IntN(10) == 0 {
				recs[i].DstPort = 80 // not SMTP: ignored
			}
		}
		want, err := Detect(recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		flagged += want.Len()
		k := 1 + rng.IntN(5)
		accs := make([]*Detector, k)
		for i := range accs {
			accs[i], _ = NewDetector(cfg)
		}
		for rest := recs; len(rest) > 0; {
			c := min(len(rest), 1+rng.IntN(50))
			accs[rng.IntN(k)].Consume(rest[:c])
			rest = rest[c:]
		}
		order := rng.Perm(k)
		acc := accs[order[0]]
		for _, i := range order[1:] {
			acc.Merge(accs[i])
		}
		if got := acc.Spammers(); !got.Equal(want) {
			t.Fatalf("trial %d (k=%d): merged %v, whole %v", trial, k, got, want)
		}
	}
	if flagged == 0 {
		t.Fatal("no trial flagged a spammer")
	}
}
