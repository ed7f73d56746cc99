package simnet

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// referenceSortByTime is the comparison sort the radix time order
// replaced; it defines the order timeOrder must reproduce.
func referenceSortByTime(records []netflow.Record) {
	slices.SortStableFunc(records, func(a, b netflow.Record) int {
		return cmp.Compare(a.First, b.First)
	})
}

// encodeRecords is the segment encoding of records, in order.
func encodeRecords(records []netflow.Record) []byte {
	out := make([]byte, len(records)*netflow.SegmentRecordSize)
	for i := range records {
		netflow.EncodeSegmentRecord(out[i*netflow.SegmentRecordSize:], &records[i])
	}
	return out
}

// checkTimeOrder holds sortByTime to the reference sort.
func checkTimeOrder(t *testing.T, label string, records []netflow.Record) {
	t.Helper()
	want := slices.Clone(records)
	referenceSortByTime(want)

	got := slices.Clone(records)
	sortByTime(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sortByTime record %d is %v, reference has %v", label, i, &got[i], &want[i])
		}
	}
}

// recordsAt builds one record per offset from base. SrcAddr numbers the
// records in input order, so a stability violation changes the output.
func recordsAt(base time.Time, offsets []int64) []netflow.Record {
	out := make([]netflow.Record, len(offsets))
	for i, off := range offsets {
		out[i] = netflow.Record{SrcAddr: netaddr.Addr(i), First: netflow.TimeOf(base.Add(time.Duration(off)))}
	}
	return out
}

// pick draws n offsets uniformly from values, so most are ties.
func pick(rng *stats.RNG, n int, values []int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = values[rng.Intn(len(values))]
	}
	return out
}

func TestSortByTimeTieHeavy(t *testing.T) {
	rng := stats.NewRNG(12)
	base := date(2006, 10, 1)
	wide := make([]int64, 500)
	for i := range wide {
		wide[i] = int64(rng.Uint64n(1 << 40))
	}
	full := make([]int64, 300)
	for i := range full {
		full[i] = int64(rng.Uint64n(1 << 62))
	}
	descending := make([]int64, 3000)
	for i := range descending {
		descending[i] = int64(len(descending)-i) / 3 * int64(time.Second)
	}
	cases := []struct {
		name    string
		base    time.Time
		offsets []int64
	}{
		{"n=0", base, nil},
		{"n=1", base, []int64{0}},
		{"all-equal", base, make([]int64, 2000)},
		// Keys that tie in some bytes and differ in others, each value
		// repeated many times.
		{"straddling-digits", base, pick(rng, 5000, []int64{
			0, 1, 255, 256, 257, 511, 65535, 65536, 65537,
			1<<24 - 1, 1 << 24, 1<<24 + 256, 1<<32 + 1,
		})},
		{"span-over-2^32ns", base, pick(rng, 5000, wide)},
		// UnixNano is negative before 1970.
		{"across-epoch", time.Unix(0, 0).UTC().Add(-1 << 40), pick(rng, 5000, wide)},
		// A span that needs all eight key bytes.
		{"eight-byte-span", time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC), pick(rng, 3000, full)},
		{"descending-seconds", base, descending},
	}
	for _, c := range cases {
		checkTimeOrder(t, c.name, recordsAt(c.base, c.offsets))
	}
}

// FuzzTimeOrder holds sortByTime to the comparison sort. The input is a
// base time in Unix nanoseconds and offsets from it, eight little-endian
// bytes each. The sum wraps, so every First lies in the segment codec's
// int64 nanosecond range. The seed corpus in testdata holds
// TestSortByTimeTieHeavy's cases.
func FuzzTimeOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, base int64, offsets []byte) {
		records := make([]netflow.Record, len(offsets)/8)
		for i := range records {
			off := int64(binary.LittleEndian.Uint64(offsets[8*i:]))
			records[i] = netflow.Record{SrcAddr: netaddr.Addr(i), First: netflow.Time(base + off)}
		}
		want := slices.Clone(records)
		referenceSortByTime(want)
		sortByTime(records)
		for i := range want {
			if records[i] != want[i] {
				t.Fatalf("record %d of %d is %v, reference has %v", i, len(want), &records[i], &want[i])
			}
		}
	})
}

func TestSortByTimeSynthesizedDays(t *testing.T) {
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true}
	for d := w.DayIndex(date(2006, 10, 1)); d <= w.DayIndex(date(2006, 10, 3)); d++ {
		day := w.synthesizeDay(d, opts, nil, nil)
		if len(day) < 1000 {
			t.Fatalf("day %d: only %d records", d, len(day))
		}
		checkTimeOrder(t, w.Date(d).Format(time.DateOnly), day)
	}
}

// TestStreamFlowsSpilledMatchesReference checks whole spilled days —
// every hour segment and the days kept in memory — against the
// reference sort of the same days synthesized in memory.
func TestStreamFlowsSpilledMatchesReference(t *testing.T) {
	w := getWorld(t)
	base := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true}
	from, to := date(2006, 10, 1), date(2006, 10, 3)
	lo, hi := w.clampDays(from, to)
	var want []netflow.Record
	for d := lo; d <= hi; d++ {
		day := w.synthesizeDay(d, base, nil, nil)
		referenceSortByTime(day)
		want = append(want, day...)
	}
	for _, budget := range []int{0, recordMemBytes * 300, recordMemBytes * 7000} {
		opts := base
		opts.SpillBudget = budget
		opts.SpillDir = t.TempDir()
		var got []netflow.Record
		if err := w.StreamFlows(from, to, opts, func(_ time.Time, recs []netflow.Record) error {
			got = append(got, recs...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		recordsIdentical(t, "spilled stream vs reference", got, want)
	}
}

// windowDigest is the SHA-256 of the segment encoding of synthWindow's
// 104,139 records as the comparison sort ordered them. It pins the order
// of the flow log, which the experiment goldens cannot see.
const windowDigest = "66db3cd001737c9b78a4eae9fda6aabf860094c592e07413e1d05f4159ba88e0"

func TestSynthesizeFlowsDigest(t *testing.T) {
	recs := synthWindow(t)
	sum := sha256.Sum256(encodeRecords(recs))
	if got := hex.EncodeToString(sum[:]); got != windowDigest {
		t.Fatalf("two-day window (%d records) digest %s, want %s", len(recs), got, windowDigest)
	}
}

// BenchmarkSortByTime sorts one synthesized day of the unclean window,
// against the reference comparison sort.
func BenchmarkSortByTime(b *testing.B) {
	w := getWorld(b)
	day := w.synthesizeDay(w.DayIndex(date(2006, 10, 1)), FlowOptions{BenignSourcesPerDay: 400, CandidateExtras: true}, nil, nil)
	work := make([]netflow.Record, len(day))
	for _, impl := range []struct {
		name string
		sort func([]netflow.Record)
	}{{"radix", sortByTime}, {"reference", referenceSortByTime}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(int64(len(day) * recordMemBytes))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work, day)
				b.StartTimer()
				impl.sort(work)
			}
			b.ReportMetric(float64(len(day)), "records")
		})
	}
}

// BenchmarkSynthesizeCounted places a week of the unclean window, each
// day synthesized and time-sorted in its slot of one exact-size log.
func BenchmarkSynthesizeCounted(b *testing.B) {
	w := getWorld(b)
	opts := FlowOptions{BenignSourcesPerDay: 400, CandidateExtras: true}
	from, to := date(2006, 10, 1), date(2006, 10, 7)
	var perDay []int
	for d := from; !d.After(to); d = d.Add(24 * time.Hour) {
		perDay = append(perDay, len(w.SynthesizeFlows(d, d, opts)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var records int
	for i := 0; i < b.N; i++ {
		log, err := w.SynthesizeCounted(from, to, opts, perDay)
		if err != nil {
			b.Fatal(err)
		}
		records = len(log)
	}
	b.SetBytes(int64(records * recordMemBytes))
	b.ReportMetric(float64(records), "records")
}
