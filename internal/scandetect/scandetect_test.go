package scandetect

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

var t0 = time.Date(2006, 10, 1, 12, 0, 0, 0, time.UTC)

// probe builds a failed connection attempt (SYN only, no payload).
func probe(src, dst string, at time.Time) netflow.Record {
	return netflow.Record{
		SrcAddr: netaddr.MustParseAddr(src), DstAddr: netaddr.MustParseAddr(dst),
		Packets: 2, Octets: 96, First: netflow.TimeOf(at), Last: netflow.TimeOf(at.Add(time.Second)),
		SrcPort: 4321, DstPort: 445, TCPFlags: netflow.FlagSYN, Proto: netflow.ProtoTCP,
	}
}

// session builds an established, payload-bearing connection.
func session(src, dst string, at time.Time) netflow.Record {
	return netflow.Record{
		SrcAddr: netaddr.MustParseAddr(src), DstAddr: netaddr.MustParseAddr(dst),
		Packets: 12, Octets: 5000, First: netflow.TimeOf(at), Last: netflow.TimeOf(at.Add(30 * time.Second)),
		SrcPort: 4321, DstPort: 80,
		TCPFlags: netflow.FlagSYN | netflow.FlagACK | netflow.FlagPSH | netflow.FlagFIN,
		Proto:    netflow.ProtoTCP,
	}
}

func dstAddr(i int) string {
	return netaddr.MakeAddr(30, byte(i>>8), byte(i), 1).String()
}

func TestClassify(t *testing.T) {
	p := probe("1.1.1.1", "30.0.0.1", t0)
	if Classify(&p) != Failure {
		t.Error("SYN probe should classify as failure")
	}
	s := session("1.1.1.1", "30.0.0.1", t0)
	if Classify(&s) != Success {
		t.Error("payload session should classify as success")
	}
	rst := s
	rst.TCPFlags |= netflow.FlagRST
	if Classify(&rst) != Failure {
		t.Error("RST flow should classify as failure")
	}
	udp := s
	udp.Proto = netflow.ProtoUDP
	if Classify(&udp) != Failure {
		t.Error("UDP flow should classify as failure")
	}
}

func TestTRWFlagsScanner(t *testing.T) {
	var records []netflow.Record
	for i := 0; i < 20; i++ {
		records = append(records, probe("6.6.6.6", dstAddr(i), t0.Add(time.Duration(i)*time.Second)))
	}
	got, err := DetectTRW(records, DefaultTRWConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(netaddr.MustParseAddr("6.6.6.6")) {
		t.Fatalf("scanners = %v, want {6.6.6.6}", got)
	}
}

func TestTRWIgnoresBenignClient(t *testing.T) {
	var records []netflow.Record
	// A busy benign client: many destinations, nearly all succeed.
	for i := 0; i < 40; i++ {
		records = append(records, session("7.7.7.7", dstAddr(i), t0.Add(time.Duration(i)*time.Second)))
	}
	records = append(records, probe("7.7.7.7", dstAddr(99), t0.Add(time.Hour)))
	got, err := DetectTRW(records, DefaultTRWConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("benign client flagged: %v", got)
	}
}

func TestTRWRepeatDestinationsNotEvidence(t *testing.T) {
	var records []netflow.Record
	// Many failures, all to the same destination: retries, not a scan.
	for i := 0; i < 50; i++ {
		records = append(records, probe("8.8.8.8", dstAddr(1), t0.Add(time.Duration(i)*time.Second)))
	}
	got, err := DetectTRW(records, DefaultTRWConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("retry traffic flagged as scanning: %v", got)
	}
}

func TestTRWMixedPopulation(t *testing.T) {
	var records []netflow.Record
	for i := 0; i < 25; i++ {
		records = append(records, probe("6.6.6.6", dstAddr(i), t0.Add(time.Duration(i)*time.Second)))
		records = append(records, session("7.7.7.7", dstAddr(i), t0.Add(time.Duration(i)*time.Second)))
	}
	got, err := DetectTRW(records, DefaultTRWConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(netaddr.MustParseAddr("6.6.6.6")) {
		t.Fatalf("scanners = %v", got)
	}
}

func TestTRWConfigValidation(t *testing.T) {
	bad := []TRWConfig{
		{Theta0: 0.2, Theta1: 0.8, Alpha: 0.01, Beta: 0.01}, // reversed
		{Theta0: 0.8, Theta1: 0.2, Alpha: 0, Beta: 0.01},
		{Theta0: 1, Theta1: 0.2, Alpha: 0.01, Beta: 0.01},
		{Theta0: 0.8, Theta1: 0.2, Alpha: 0.01, Beta: 1},
	}
	for i, cfg := range bad {
		if _, err := NewTRW(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestTRWSourceCount(t *testing.T) {
	tr, err := NewTRW(DefaultTRWConfig())
	if err != nil {
		t.Fatal(err)
	}
	r1 := probe("1.1.1.1", dstAddr(0), t0)
	r2 := probe("2.2.2.2", dstAddr(0), t0)
	tr.Observe(&r1)
	tr.Observe(&r2)
	tr.Observe(&r1)
	if tr.SourceCount() != 2 {
		t.Fatalf("SourceCount = %d, want 2", tr.SourceCount())
	}
}

func TestThresholdFlagsHourlyScanner(t *testing.T) {
	var records []netflow.Record
	// 40 distinct failed targets within a single hour.
	for i := 0; i < 40; i++ {
		records = append(records, probe("6.6.6.6", dstAddr(i), t0.Add(time.Duration(i)*time.Minute/2)))
	}
	got := detectThreshold(t, records, DefaultThresholdConfig())
	if got.Len() != 1 || !got.Contains(netaddr.MustParseAddr("6.6.6.6")) {
		t.Fatalf("scanners = %v", got)
	}
}

func TestThresholdMissesSlowScanner(t *testing.T) {
	// The §6.2 blind spot: under 30 addresses per day, spread out, never
	// 32 in one hour.
	var records []netflow.Record
	for day := 0; day < 5; day++ {
		for i := 0; i < 25; i++ {
			at := t0.Add(time.Duration(day)*24*time.Hour + time.Duration(i)*37*time.Minute)
			records = append(records, probe("9.9.9.9", dstAddr(day*25+i), at))
		}
	}
	got := detectThreshold(t, records, DefaultThresholdConfig())
	if got.Len() != 0 {
		t.Fatalf("slow scanner should evade the hourly detector, got %v", got)
	}
	// But TRW, which is rate-independent, must catch it.
	trw, err := DetectTRW(records, DefaultTRWConfig())
	if err != nil {
		t.Fatal(err)
	}
	if trw.Len() != 1 {
		t.Fatalf("TRW should catch the slow scanner, got %v", trw)
	}
}

func TestThresholdIgnoresBusySuccessfulClient(t *testing.T) {
	var records []netflow.Record
	for i := 0; i < 60; i++ {
		records = append(records, session("7.7.7.7", dstAddr(i), t0.Add(time.Duration(i)*time.Minute/2)))
	}
	got := detectThreshold(t, records, DefaultThresholdConfig())
	if got.Len() != 0 {
		t.Fatalf("successful fan-out flagged: %v", got)
	}
}

func TestThresholdConfigValidation(t *testing.T) {
	bad := []ThresholdConfig{
		{Window: 0, MinTargets: 32, MinFailureRatio: 0.5},
		{Window: time.Hour, MinTargets: 1, MinFailureRatio: 0.5},
		{Window: time.Hour, MinTargets: 32, MinFailureRatio: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewThreshold(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestThresholdDedupesDestinationOutcomes(t *testing.T) {
	// A destination probed then successfully connected counts once, as a
	// success, so heavy retried traffic to few hosts never flags.
	var records []netflow.Record
	for i := 0; i < 40; i++ {
		records = append(records, probe("5.5.5.5", dstAddr(i%4), t0.Add(time.Duration(i)*time.Second)))
		records = append(records, session("5.5.5.5", dstAddr(i%4), t0.Add(time.Duration(i)*time.Second+500*time.Millisecond)))
	}
	got := detectThreshold(t, records, DefaultThresholdConfig())
	if got.Len() != 0 {
		t.Fatalf("retried traffic to 4 hosts flagged: %v", got)
	}
}

// randomContacts returns n records from srcs sources over the first
// hours hours of two days, to dsts destinations that repeat across the
// set, each a failed probe or, at random, an established session.
func randomContacts(rng *rand.Rand, n, srcs, dsts, hours int) []netflow.Record {
	day0 := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]netflow.Record, n)
	for i := range recs {
		at := day0.Add(time.Duration(rng.IntN(2))*24*time.Hour + time.Duration(rng.IntN(hours*3600))*time.Second)
		src := netaddr.MakeAddr(60, 0, 0, byte(rng.IntN(srcs))).String()
		dst := dstAddr(rng.IntN(dsts))
		if rng.IntN(3) == 0 {
			recs[i] = session(src, dst, at)
		} else {
			recs[i] = probe(src, dst, at)
		}
	}
	return recs
}

// dealChunks cuts recs into chunks of random lengths and deals them at
// random over k parts.
func dealChunks(rng *rand.Rand, recs []netflow.Record, k int) [][][]netflow.Record {
	parts := make([][][]netflow.Record, k)
	for len(recs) > 0 {
		n := min(len(recs), 1+rng.IntN(50))
		p := rng.IntN(k)
		parts[p] = append(parts[p], recs[:n])
		recs = recs[n:]
	}
	return parts
}

// mergeThresholds merges accs in a random order and returns the result.
func mergeThresholds(rng *rand.Rand, accs []*Threshold) ipset.Set {
	order := rng.Perm(len(accs))
	acc := accs[order[0]]
	for _, i := range order[1:] {
		acc.Merge(accs[i])
	}
	return acc.Scanners()
}

// TestThresholdMergeProperty splits random record sets, with several
// hours, sources whose buckets straddle the thresholds and destinations
// repeated across chunks, into arbitrary chunks over k accumulators,
// merges them in any order and compares with the map-based reference
// over the whole slice, which one accumulator over the whole slice also
// matches. The per-day variant hands each day to one accumulator and
// ends it, as the fold over days does.
func TestThresholdMergeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(20061001, 1))
	cfgs := []ThresholdConfig{
		DefaultThresholdConfig(),
		{Window: time.Hour, MinTargets: 6, MinFailureRatio: 0.5},
		{Window: 5 * time.Hour, MinTargets: 8, MinFailureRatio: 0.7}, // windows straddle days
	}
	flagged := 0
	for trial := 0; trial < 60; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		recs := randomContacts(rng, 1+rng.IntN(4000), 1+rng.IntN(40), 1+rng.IntN(80), 1+rng.IntN(30))
		want := detectThreshold(t, recs, cfg)
		flagged += want.Len()
		k := 1 + rng.IntN(5)

		accs := make([]*Threshold, k)
		for i, chunks := range dealChunks(rng, recs, k) {
			accs[i], _ = NewThreshold(cfg)
			for _, c := range chunks {
				accs[i].Consume(c)
			}
		}
		if got := mergeThresholds(rng, accs); !got.Equal(want) {
			t.Fatalf("trial %d (%+v, k=%d): chunked %v, whole %v", trial, cfg, k, got, want)
		}

		for i := range accs {
			accs[i], _ = NewThreshold(cfg)
		}
		byDay := map[time.Time][]netflow.Record{}
		for _, r := range recs {
			day := r.First.UTC().Truncate(24 * time.Hour)
			byDay[day] = append(byDay[day], r)
		}
		for day, dayRecs := range byDay {
			acc := accs[rng.IntN(k)]
			for _, chunks := range dealChunks(rng, dayRecs, 1) {
				for _, c := range chunks {
					acc.Consume(c)
				}
			}
			acc.EndDay(day)
		}
		if got := mergeThresholds(rng, accs); !got.Equal(want) {
			t.Fatalf("trial %d (%+v, k=%d): per day %v, whole %v", trial, cfg, k, got, want)
		}
	}
	if flagged == 0 {
		t.Fatal("no trial flagged a scanner")
	}
}

// TestThresholdNanosecondWindow holds the window index to its full
// width: under a 1 ns window, records 2^32 ns apart fall in different
// windows, which a 32-bit index would join. It runs the whole-slice and
// the per-day evaluation.
func TestThresholdNanosecondWindow(t *testing.T) {
	cfg := ThresholdConfig{Window: time.Nanosecond, MinTargets: 2, MinFailureRatio: 0.5}
	day := t0.Truncate(24 * time.Hour)
	apart := t0.Add(1 << 32)
	recs := []netflow.Record{
		probe("6.6.6.6", dstAddr(1), t0), probe("6.6.6.6", dstAddr(2), apart),
		probe("7.7.7.7", dstAddr(1), t0), probe("7.7.7.7", dstAddr(2), t0),
	}
	want := ipset.MustParse("7.7.7.7")
	if got := detectThreshold(t, recs, cfg); !got.Equal(want) {
		t.Fatalf("whole slice flagged %v, want %v", got, want)
	}
	acc, err := NewThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc.Consume(recs)
	acc.EndDay(day)
	if got := acc.Scanners(); !got.Equal(want) {
		t.Fatalf("per day flagged %v, want %v", got, want)
	}
}

// TestThresholdMinTargetsBoundary holds the evaluation to its edges. A
// bucket of exactly MinTargets single probes is flagged. In a bucket of
// exactly MinTargets destinations, half of them failing, one that fails
// several times and succeeds once counts once, as a success, which keeps
// the failures under the ratio; when it never succeeds, the bucket is
// flagged.
func TestThresholdMinTargetsBoundary(t *testing.T) {
	cfg := DefaultThresholdConfig()
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	var recs []netflow.Record
	for i := 0; i < cfg.MinTargets; i++ {
		recs = append(recs, probe("5.5.5.1", dstAddr(i), at(i)))
	}
	last := dstAddr(cfg.MinTargets - 1)
	for _, src := range []string{"5.5.5.2", "5.5.5.3"} {
		for i := 0; i < cfg.MinTargets-1; i++ {
			if i < cfg.MinTargets/2 {
				recs = append(recs, session(src, dstAddr(i), at(i)))
			} else {
				recs = append(recs, probe(src, dstAddr(i), at(i)))
			}
		}
		recs = append(recs, probe(src, last, at(40)), probe(src, last, at(41)))
		if src == "5.5.5.2" {
			recs = append(recs, session(src, last, at(42)))
		}
		recs = append(recs, probe(src, last, at(43)))
	}
	want := ipset.MustParse("5.5.5.1 5.5.5.3")
	if got := detectThreshold(t, recs, cfg); !got.Equal(want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

// fuzzWindows are FuzzThreshold's windows: evaluated at each day's end
// (1 ns, a minute, an hour, a day) or kept open across days (2^32 ns,
// 5 h).
var fuzzWindows = []time.Duration{time.Nanosecond, 1 << 32, time.Minute, time.Hour, 5 * time.Hour, 24 * time.Hour}

// FuzzThreshold decodes bytes into a configuration and records, deals
// the records in chunks over 1–4 accumulators, once in any order and
// once day by day with EndDay, merges each set in an order the input
// picks and holds both results to the map-based reference. The first
// two bytes pick the window, the accumulator count, MinTargets, the
// failure ratio and the merge order; each record is four more bytes:
// its source, outcome, day and whether it starts a chunk, then its
// destination and the chunk's accumulator, then its offset into the
// day in steps of 2^32 ns, so that under a 1 ns window every record of
// a source and day shares the low 32 bits of its window index.
func FuzzThreshold(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := ThresholdConfig{
			Window:          fuzzWindows[int(data[0])%len(fuzzWindows)],
			MinTargets:      2 + int(data[1]%4),
			MinFailureRatio: float64(data[1]>>2%5) / 4,
		}
		k := 1 + int(data[0]>>6)
		rng := rand.New(rand.NewPCG(uint64(data[1]), 0))
		day0 := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
		var recs []netflow.Record
		var days, routes []int
		var cuts []bool
		for b := data[2:]; len(b) >= 4; b = b[4:] {
			src := netaddr.MakeAddr(60, 0, 0, b[0]&7).String()
			day := int(b[0]>>4&3) % 3
			at := day0.Add(time.Duration(day)*24*time.Hour + time.Duration(binary.BigEndian.Uint16(b[2:])%20116)<<32)
			if b[0]&8 != 0 {
				recs = append(recs, session(src, dstAddr(int(b[1]&31)), at))
			} else {
				recs = append(recs, probe(src, dstAddr(int(b[1]&31)), at))
			}
			days = append(days, day)
			routes = append(routes, int(b[1]>>5)%k)
			cuts = append(cuts, b[0]&64 != 0)
		}
		want := referenceThreshold(recs, cfg)

		// Chunks in input order, each to the accumulator its first
		// record names.
		accs := make([]*Threshold, k)
		for i := range accs {
			accs[i], _ = NewThreshold(cfg)
		}
		for start, end := 0, 1; start < len(recs); end++ {
			if end == len(recs) || cuts[end] {
				accs[routes[start]].Consume(recs[start:end])
				start = end
			}
		}
		if got := mergeThresholds(rng, accs); !got.Equal(want) {
			t.Fatalf("%+v, k=%d: chunked %v, reference %v", cfg, k, got, want)
		}

		// Day by day: each day's records, in input order and cut where
		// the input cuts them, to the accumulator its first record
		// names, which then ends the day.
		for i := range accs {
			accs[i], _ = NewThreshold(cfg)
		}
		for day := 0; day < 3; day++ {
			var acc *Threshold
			var chunk []netflow.Record
			for i, r := range recs {
				if days[i] != day {
					continue
				}
				if acc == nil {
					acc = accs[routes[i]]
				}
				if cuts[i] && len(chunk) > 0 {
					acc.Consume(chunk)
					chunk = chunk[:0]
				}
				chunk = append(chunk, r)
			}
			if acc != nil {
				acc.Consume(chunk)
				acc.EndDay(day0.Add(time.Duration(day) * 24 * time.Hour))
			}
		}
		if got := mergeThresholds(rng, accs); !got.Equal(want) {
			t.Fatalf("%+v, k=%d: per day %v, reference %v", cfg, k, got, want)
		}
	})
}
