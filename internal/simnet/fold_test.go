package simnet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// foldProbe is a DayFolder that checks the fold's delivery contract:
// fixed-size chunks, only a day's last one shorter, and every record
// consumed before an EndDay inside that day.
type foldProbe struct {
	t       *testing.T
	log     FlowLog
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
	p.log.Consume(recs)
}

func (p *foldProbe) EndDay(day time.Time) {
	lo, hi := netflow.TimeOf(day), netflow.TimeOf(day.Add(24*time.Hour))
	for i := range p.day {
		if f := p.day[i].First; f < lo || f >= hi {
			p.t.Fatalf("record %d of %s starts at %v", i, day.Format(time.DateOnly), f.UTC())
		}
	}
	p.endDays = append(p.endDays, day)
	p.day, p.short = p.day[:0], false
	p.log.EndDay(day)
}

// TestFoldFlowLogMatchesSynthesize holds the fold to the ordered path:
// at one worker and at four, every day ends once, chunks keep their
// size, and the FlowLog's records equal SynthesizeFlows byte for byte.
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
			for _, p := range parts[1:] {
				parts[0].log.Merge(&p.log)
			}
			for _, p := range parts {
				for _, d := range p.endDays {
					days[d]++
				}
			}
			for d := from; !d.After(to); d = d.Add(24 * time.Hour) {
				if days[d] != 1 {
					t.Errorf("%s ended %d times", d.Format(time.DateOnly), days[d])
				}
			}
			recordsIdentical(t, "fold log vs SynthesizeFlows", parts[0].log.Records(), want)
		})
	}
}

// TestFoldEmptyWindow gives one empty folder for a window outside the
// horizon.
func TestFoldEmptyWindow(t *testing.T) {
	w := getWorld(t)
	parts, err := Fold(w, date(2005, 1, 1), date(2005, 1, 5), FlowOptions{}, func() (*foldProbe, error) {
		return &foldProbe{t: t}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || len(parts[0].endDays) != 0 || len(parts[0].log.Records()) != 0 {
		t.Fatalf("empty window: %d folders", len(parts))
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
