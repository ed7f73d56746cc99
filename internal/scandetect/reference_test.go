package scandetect

import (
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

// referenceThreshold is the map-based hourly fan-out detector that
// Threshold replaced, over a whole slice: one map of destination
// outcomes per (source, window) bucket, a destination that ever
// succeeded staying a success. The tests hold Threshold to it.
func referenceThreshold(records []netflow.Record, cfg ThresholdConfig) ipset.Set {
	type hourBucket struct {
		src  netaddr.Addr
		hour int64
	}
	buckets := make(map[hourBucket]map[netaddr.Addr]Outcome)
	for i := range records {
		r := &records[i]
		key := hourBucket{src: r.SrcAddr, hour: int64(r.First) / int64(cfg.Window)}
		dsts := buckets[key]
		if dsts == nil {
			dsts = make(map[netaddr.Addr]Outcome)
			buckets[key] = dsts
		}
		if prev, seen := dsts[r.DstAddr]; !seen || prev == Failure {
			dsts[r.DstAddr] = Classify(r)
		}
	}
	flagged := ipset.NewBuilder(0)
	for key, dsts := range buckets {
		if len(dsts) < cfg.MinTargets {
			continue
		}
		failures := 0
		for _, o := range dsts {
			if o == Failure {
				failures++
			}
		}
		if float64(failures) >= cfg.MinFailureRatio*float64(len(dsts)) {
			flagged.Add(key.src)
		}
	}
	return flagged.Build()
}

// detectThreshold runs one Threshold over records and returns its
// scanners, failing t unless the reference flags the same sources.
func detectThreshold(t testing.TB, records []netflow.Record, cfg ThresholdConfig) ipset.Set {
	t.Helper()
	acc, err := NewThreshold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc.Consume(records)
	got := acc.Scanners()
	if want := referenceThreshold(records, cfg); !got.Equal(want) {
		t.Fatalf("Threshold (%+v) flagged %v, the reference %v", cfg, got, want)
	}
	return got
}
