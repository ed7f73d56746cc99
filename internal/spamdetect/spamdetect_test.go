package spamdetect

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"unclean/internal/ipset"
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
	got := detect(t, records, DefaultConfig())
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
	got := detect(t, records, DefaultConfig())
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
	got := detect(t, records, DefaultConfig())
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
	got := detect(t, records, DefaultConfig())
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
	got := detect(t, records, DefaultConfig())
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
	got := detect(t, records, DefaultConfig())
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
		if _, err := NewDetector(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestDetectorMergeProperty splits random SMTP record sets, with
// senders on both sides of every threshold and servers repeated across
// chunks, into arbitrary chunks over k accumulators, merges them in any
// order and compares with the map-based reference over the whole slice,
// which one accumulator over the whole slice also matches. The second
// configuration's MinServers is past the room a sender's servers start
// with, so rows move as they fill.
func TestDetectorMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(20061001, 2))
	cfgs := []Config{
		{MinServers: 4, MinFlows: 6, MaxAvgPayload: 1500, MinRejectRatio: 0.3},
		{MinServers: 2*firstRoom + 3, MinFlows: 6, MaxAvgPayload: 1500, MinRejectRatio: 0.3},
	}
	flagged := 0
	for trial := 0; trial < 60; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		n := 1 + rng.IntN(3000)
		recs := make([]netflow.Record, n)
		for i := range recs {
			src := netaddr.MakeAddr(60, 0, 0, byte(rng.IntN(1+trial))).String()
			recs[i] = smtpFlow(src, rng.IntN(3*cfg.MinServers), uint32(rng.IntN(3000)), rng.IntN(2) == 0,
				t0.Add(time.Duration(rng.IntN(48*3600))*time.Second))
			if rng.IntN(10) == 0 {
				recs[i].DstPort = 80 // not SMTP: ignored
			}
		}
		want := detect(t, recs, cfg)
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

// TestDetectorMergeCap holds the server cap to the rule at its edge over
// a merge: a sender whose MinServers servers are split across two
// accumulators, which share two of them, is flagged, and one with
// MinServers-1 is not, whichever way the two merge. It runs at the
// default MinServers and past the room a sender's servers start with.
func TestDetectorMergeCap(t *testing.T) {
	for _, minServers := range []int{DefaultConfig().MinServers, 3 * firstRoom} {
		cfg := DefaultConfig()
		cfg.MinServers = minServers
		// Each server gets two flows, one delivered and one rejected.
		flows := func(src string, lo, hi int) []netflow.Record {
			var recs []netflow.Record
			for i := lo; i < hi; i++ {
				recs = append(recs, smtpFlow(src, i, 900, true, t0), smtpFlow(src, i, 0, false, t0))
			}
			return recs
		}
		half := minServers / 2
		a := append(flows("6.6.6.1", 0, half+1), flows("6.6.6.2", 0, half+1)...)
		b := append(flows("6.6.6.1", half-1, minServers), flows("6.6.6.2", half-1, minServers-1)...)
		want := ipset.MustParse("6.6.6.1")
		if got := detect(t, append(slices.Clone(a), b...), cfg); !got.Equal(want) {
			t.Fatalf("MinServers %d: whole slice flagged %v, want %v", minServers, got, want)
		}
		for _, parts := range [][2][]netflow.Record{{a, b}, {b, a}} {
			acc, _ := NewDetector(cfg)
			other, _ := NewDetector(cfg)
			acc.Consume(parts[0])
			other.Consume(parts[1])
			acc.Merge(other)
			if got := acc.Spammers(); !got.Equal(want) {
				t.Fatalf("MinServers %d: merged flagged %v, want %v", minServers, got, want)
			}
		}
	}
}

// FuzzSpamDetector decodes bytes into a configuration and records,
// deals the records in chunks over 1–4 accumulators, merges them in an
// order the input picks and holds the result to the map-based
// reference. The first three bytes pick MinServers (up to 20, past the
// room a sender's servers start with), the accumulator count, MinFlows,
// the reject ratio, the payload ceiling and the merge order; each
// record is four more bytes: its sender, whether it was delivered, is
// off the SMTP port or is not TCP, and whether it starts a chunk, then
// its server and the chunk's accumulator, then its payload.
func FuzzSpamDetector(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := Config{
			MinServers:     1 + int(data[0]%20),
			MinFlows:       1 + int(data[1]%16),
			MaxAvgPayload:  64 * float64(1+int(data[2])),
			MinRejectRatio: float64(data[1]>>4%5) / 4,
		}
		k := 1 + int(data[0]>>6)
		rng := rand.New(rand.NewPCG(uint64(data[2]), 0))
		var recs []netflow.Record
		var routes []int
		var cuts []bool
		for b := data[3:]; len(b) >= 4; b = b[4:] {
			src := netaddr.MakeAddr(60, 0, 0, b[0]&7).String()
			r := smtpFlow(src, int(b[1]&63), uint32(binary.BigEndian.Uint16(b[2:])), b[0]&8 != 0, t0)
			if b[0]&16 != 0 {
				r.DstPort = 80
			}
			if b[0]&32 != 0 {
				r.Proto = netflow.ProtoUDP
			}
			recs = append(recs, r)
			routes = append(routes, int(b[1]>>6)%k)
			cuts = append(cuts, b[0]&64 != 0)
		}
		want := referenceSpammers(recs, cfg)

		accs := make([]*Detector, k)
		for i := range accs {
			accs[i], _ = NewDetector(cfg)
		}
		for start, end := 0, 1; start < len(recs); end++ {
			if end == len(recs) || cuts[end] {
				accs[routes[start]].Consume(recs[start:end])
				start = end
			}
		}
		order := rng.Perm(k)
		acc := accs[order[0]]
		for _, i := range order[1:] {
			acc.Merge(accs[i])
		}
		if got := acc.Spammers(); !got.Equal(want) {
			t.Fatalf("%+v, k=%d: merged %v, reference %v", cfg, k, got, want)
		}
	})
}
