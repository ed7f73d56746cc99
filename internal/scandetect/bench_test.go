package scandetect

import (
	"testing"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netflow"
	"unclean/internal/simnet"
)

// benchSink keeps the benchmarks' results live.
var benchSink ipset.Set

// dayLog collects a folded day's records in generation order.
type dayLog struct{ recs []netflow.Record }

func (d *dayLog) Consume(recs []netflow.Record) { d.recs = append(d.recs, recs...) }
func (d *dayLog) EndDay(time.Time)              {}

// BenchmarkThresholdConsume times the hourly detector over the first
// day of the unclean window at scale 1/64, with the benign traffic of
// the experiments' default configuration, as a fold worker runs it
// after its first day: Consume chunk by chunk in generation order,
// EndDay, which evaluates the day's buckets, Scanners and Reset. The reference
// sub-benchmark runs the map-based detector it replaced over the same
// records. Both report ns per record.
func BenchmarkThresholdConsume(b *testing.B) {
	w, err := simnet.NewWorld(simnet.DefaultConfig(1.0 / 64))
	if err != nil {
		b.Fatal(err)
	}
	day := time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	opts := simnet.FlowOptions{BenignSourcesPerDay: 400, CandidateExtras: true}
	parts, err := simnet.Fold(w, day, day, opts, func() (*dayLog, error) { return &dayLog{}, nil })
	if err != nil {
		b.Fatal(err)
	}
	var recs []netflow.Record
	for _, p := range parts {
		recs = append(recs, p.recs...)
	}
	cfg := DefaultThresholdConfig()
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	}
	b.Run("accumulator", func(b *testing.B) {
		acc, err := NewThreshold(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for rest := recs; len(rest) > 0; {
				n := min(len(rest), 8192)
				acc.Consume(rest[:n])
				rest = rest[n:]
			}
			acc.EndDay(day)
			benchSink = acc.Scanners()
			acc.Reset()
		}
		perRecord(b)
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = referenceThreshold(recs, cfg)
		}
		perRecord(b)
	})
}
