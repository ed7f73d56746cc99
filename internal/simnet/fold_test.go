package simnet

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// foldProbe is a DayFolder that checks the fold's delivery contract:
// fixed-size chunks, only a day's last one shorter, and every record
// consumed before an EndDay inside that day. It counts each day's
// records, as a fold that has SynthesizeCounted place the log does.
type foldProbe struct {
	t       *testing.T
	counts  map[time.Time]int
	day     []netflow.Record // the current day, as delivered
	short   bool             // the current day had a short chunk
	endDays []time.Time
}

func (p *foldProbe) Consume(recs []netflow.Record) {
	if p.short {
		p.t.Errorf("a chunk of %d records follows a short chunk", len(recs))
	}
	if len(recs) == 0 || len(recs) > foldChunkRecords {
		p.t.Errorf("chunk of %d records", len(recs))
	}
	p.short = len(recs) < foldChunkRecords
	p.day = append(p.day, recs...)
}

func (p *foldProbe) EndDay(day time.Time) {
	lo, hi := netflow.TimeOf(day), netflow.TimeOf(day.Add(24*time.Hour))
	for i := range p.day {
		if f := p.day[i].First; f < lo || f >= hi {
			p.t.Fatalf("record %d of %s starts at %v", i, day.Format(time.DateOnly), f.UTC())
		}
	}
	p.endDays = append(p.endDays, day)
	if p.counts == nil {
		p.counts = map[time.Time]int{}
	}
	p.counts[day] = len(p.day)
	p.day, p.short = p.day[:0], false
}

// TestFoldFlowLogMatchesSynthesize holds the fold to the ordered path:
// at one worker and at four, every day ends once, chunks keep their
// size, and SynthesizeCounted over the fold's per-day counts equals
// SynthesizeFlows byte for byte, in a log of exactly its length.
func TestFoldFlowLogMatchesSynthesize(t *testing.T) {
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true}
	from, to := date(2006, 10, 1), date(2006, 10, 6)
	want := w.SynthesizeFlows(from, to, opts)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			parts, err := Fold(w, from, to, opts, func() (*foldProbe, error) { return &foldProbe{t: t}, nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(parts) != stats.Workers(6) {
				t.Fatalf("%d folders, want %d", len(parts), stats.Workers(6))
			}
			days := map[time.Time]int{}
			counts := map[time.Time]int{}
			for _, p := range parts {
				for _, d := range p.endDays {
					days[d]++
				}
				for d, n := range p.counts {
					counts[d] = n
				}
			}
			var perDay []int
			for d := from; !d.After(to); d = d.Add(24 * time.Hour) {
				if days[d] != 1 {
					t.Errorf("%s ended %d times", d.Format(time.DateOnly), days[d])
				}
				perDay = append(perDay, counts[d])
			}
			log, err := w.SynthesizeCounted(from, to, opts, perDay)
			if err != nil {
				t.Fatal(err)
			}
			if cap(log) != len(log) {
				t.Errorf("log of %d records has capacity %d", len(log), cap(log))
			}
			recordsIdentical(t, "counted log vs SynthesizeFlows", log, want)
		})
	}
}

// TestFoldEmptyWindow gives one empty folder, and an empty log, for a
// window outside the horizon.
func TestFoldEmptyWindow(t *testing.T) {
	w := getWorld(t)
	from, to := date(2005, 1, 1), date(2005, 1, 5)
	parts, err := Fold(w, from, to, FlowOptions{}, func() (*foldProbe, error) {
		return &foldProbe{t: t}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || len(parts[0].endDays) != 0 {
		t.Fatalf("empty window: %d folders", len(parts))
	}
	log, err := w.SynthesizeCounted(from, to, FlowOptions{}, nil)
	if err != nil || len(log) != 0 {
		t.Fatalf("empty window: %d records, err %v", len(log), err)
	}
}

// TestSynthesizeCountedRejectsMiscounts gives SynthesizeCounted day
// counts that do not match the days: each is an error on the caller's
// goroutine, with no log, and never a crash in a pool worker.
func TestSynthesizeCountedRejectsMiscounts(t *testing.T) {
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true}
	from, to := date(2006, 10, 1), date(2006, 10, 4)
	var perDay []int
	for d := from; !d.After(to); d = d.Add(24 * time.Hour) {
		perDay = append(perDay, len(w.SynthesizeFlows(d, d, opts)))
	}
	if _, err := w.SynthesizeCounted(from, to, opts, perDay); err != nil {
		t.Fatalf("exact counts: %v", err)
	}
	miscount := func(i, delta int) []int {
		c := slices.Clone(perDay)
		c[i] += delta
		return c
	}
	for name, counts := range map[string][]int{
		"one day over":  miscount(1, +1),
		"one day under": miscount(2, -1),
		"last day zero": miscount(3, -perDay[3]),
		"negative day":  miscount(0, -perDay[0]-1),
		"short":         perDay[:3],
		"long":          append(slices.Clone(perDay), 5),
	} {
		log, err := w.SynthesizeCounted(from, to, opts, counts)
		if err == nil || log != nil {
			t.Errorf("%s: %d records, err %v; want an error and no log", name, len(log), err)
		}
	}
}

// TestSynthesizeCountedAllocatesTheLogOnce holds SynthesizeCounted to
// one allocation of the log: everything it allocates, the radix order's
// scratch included, stays under 1.5 times the log's bytes. Keeping each
// sorted day and concatenating them allocates over twice the log.
func TestSynthesizeCountedAllocatesTheLogOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true}
	from, to := date(2006, 10, 1), date(2006, 10, 14)
	var perDay []int
	for d := from; !d.After(to); d = d.Add(24 * time.Hour) {
		perDay = append(perDay, len(w.SynthesizeFlows(d, d, opts)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	log, err := w.SynthesizeCounted(from, to, opts, perDay)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	logBytes := uint64(len(log) * recordMemBytes)
	if got := after.TotalAlloc - before.TotalAlloc; 2*got >= 3*logBytes {
		t.Fatalf("building a log of %d bytes allocated %d bytes (%.2fx), want under 1.5x", logBytes, got, float64(got)/float64(logBytes))
	}
}

// TestGeneratorsKeepFirstInsideDay checks every generator, over many
// draws, against the day-boundary contract the fold's per-day consumers
// rely on: each record's First lies inside the day it was generated for.
func TestGeneratorsKeepFirstInsideDay(t *testing.T) {
	w := getWorld(t)
	d := w.DayIndex(date(2006, 10, 3))
	day := w.Date(d)
	lo, hi := netflow.TimeOf(day), netflow.TimeOf(day.Add(24*time.Hour))
	src := netaddr.MakeAddr(60, 1, 2, 3)
	rng := stats.NewRNG(7)
	camp := Campaign{Day: d, Target: w.webServer(0), TargetPort: 80}
	generators := map[string]func(out []netflow.Record) []netflow.Record{
		"fastScan": func(out []netflow.Record) []netflow.Record { return w.fastScanFlows(rng, lo, src, out) },
		"slowScan": func(out []netflow.Record) []netflow.Record { return w.slowScanFlows(rng, lo, src, out) },
		"spam":     func(out []netflow.Record) []netflow.Record { return w.spamFlows(rng, lo, src, out) },
		"benign":   func(out []netflow.Record) []netflow.Record { return w.benignFlows(rng, lo, src, out) },
		"ddos":     func(out []netflow.Record) []netflow.Record { return w.ddosFlows(rng, lo, src, camp, out) },
		"candidateExtra": func(out []netflow.Record) []netflow.Record {
			return w.candidateExtraFlows(rng, d, out, keepDay{})
		},
	}
	for name, gen := range generators {
		var out []netflow.Record
		for i := 0; i < 2000 && len(out) < 200000; i++ {
			out = gen(out)
		}
		if len(out) == 0 {
			t.Errorf("%s generated nothing", name)
		}
		for i := range out {
			if f := out[i].First; f < lo || f >= hi {
				t.Fatalf("%s: record %d starts at %v, outside %s", name, i, f.UTC(), day.Format(time.DateOnly))
			}
		}
	}
}

// randomRecords returns n records over a few hours of two days, from
// srcs sources to dsts destinations, with mixed protocols and outcomes.
func randomRecords(rng *stats.RNG, n, srcs, dsts int) []netflow.Record {
	t0 := date(2006, 10, 1)
	recs := make([]netflow.Record, n)
	for i := range recs {
		start := netflow.TimeOf(t0.Add(time.Duration(rng.Intn(2))*24*time.Hour + time.Duration(rng.Intn(4*3600))*time.Second))
		r := netflow.Record{
			SrcAddr: netaddr.MakeAddr(60, 0, byte(rng.Intn(srcs)), 1),
			DstAddr: netaddr.MakeAddr(30, 0, byte(rng.Intn(dsts)/256), byte(rng.Intn(dsts))),
			First:   start, Last: at(start, time.Second),
			Packets: 2, Octets: 96,
			DstPort:  uint16(rng.Intn(3) * 25),
			TCPFlags: netflow.FlagSYN, Proto: netflow.ProtoTCP,
		}
		switch rng.Intn(4) {
		case 0:
			r.TCPFlags |= netflow.FlagACK | netflow.FlagPSH
			r.Packets, r.Octets = 6, 6*40+uint32(rng.Intn(3000))
		case 1:
			r.Proto = netflow.ProtoUDP
		}
		recs[i] = r
	}
	return recs
}

// splitChunks cuts recs into chunks of random lengths, dealt at random
// over k parts.
func splitChunks(rng *stats.RNG, recs []netflow.Record, k int) [][][]netflow.Record {
	parts := make([][][]netflow.Record, k)
	for len(recs) > 0 {
		n := min(len(recs), 1+rng.Intn(97))
		p := rng.Intn(k)
		parts[p] = append(parts[p], recs[:n])
		recs = recs[n:]
	}
	return parts
}

// TestSourceSetsMergeProperty splits random record sets into arbitrary
// chunks over k accumulators, merges them in a random order and
// compares with the whole slice's sets.
func TestSourceSetsMergeProperty(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 40; trial++ {
		recs := randomRecords(rng, 1+rng.Intn(3000), 1+rng.Intn(200), 1+rng.Intn(600))
		wantPayload, wantTCP := sourceSets(recs)
		k := 1 + rng.Intn(5)
		accs := make([]*SourceSets, k)
		for i, chunks := range splitChunks(rng, recs, k) {
			accs[i] = NewSourceSets()
			for _, c := range chunks {
				accs[i].Consume(c)
			}
		}
		order := rng.Perm(k)
		acc := accs[order[0]]
		for _, i := range order[1:] {
			acc.Merge(accs[i])
		}
		payload, tcp := acc.Sets()
		if !payload.Equal(wantPayload) || !tcp.Equal(wantTCP) {
			t.Fatalf("trial %d (k=%d): merged sets %v %v, whole slice %v %v", trial, k, payload, tcp, wantPayload, wantTCP)
		}
	}
}
