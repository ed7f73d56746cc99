package simnet

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

func recordsIdentical(t *testing.T, label string, got, want []netflow.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs:\n got %v\nwant %v", label, i, &got[i], &want[i])
		}
	}
}

// TestStreamFlowsSpillIdentical is the core external-memory guarantee:
// streaming with an aggressively small spill budget yields exactly the
// record sequence the in-memory path yields, chunk boundaries aside.
func TestStreamFlowsSpillIdentical(t *testing.T) {
	cfg := DefaultConfig(1.0 / 4096)
	cfg.Seed = 777
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	from := date(2006, 10, 1)
	to := date(2006, 10, 5)
	base := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true}

	var want []netflow.Record
	if err := w.StreamFlows(from, to, base, func(_ time.Time, recs []netflow.Record) error {
		want = append(want, recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A budget of a few hundred records forces many spill runs per day.
	for _, budget := range []int{recordMemBytes * 200, recordMemBytes * 5000, 1 << 30} {
		opts := base
		opts.SpillBudget = budget
		opts.SpillDir = t.TempDir()
		var got []netflow.Record
		calls := 0
		if err := w.StreamFlows(from, to, opts, func(_ time.Time, recs []netflow.Record) error {
			got = append(got, recs...)
			calls++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		recordsIdentical(t, "spilled stream", got, want)
		if calls == 0 {
			t.Fatal("fn never called")
		}
		// Segments must all be cleaned up.
		left, err := os.ReadDir(opts.SpillDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			if strings.Contains(e.Name(), "spill") {
				t.Fatalf("leftover spill segment %s", e.Name())
			}
		}
	}
}

// TestStreamFlowsSpillError proves a failing consumer aborts the merge
// and leaves no segment files behind.
func TestStreamFlowsSpillError(t *testing.T) {
	cfg := DefaultConfig(1.0 / 4096)
	cfg.Seed = 778
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := FlowOptions{
		BenignSourcesPerDay: 60,
		CandidateExtras:     true,
		SpillBudget:         recordMemBytes * 100,
		SpillDir:            t.TempDir(),
	}
	boom := os.ErrClosed
	err = w.StreamFlows(date(2006, 10, 1), date(2006, 10, 9), opts,
		func(time.Time, []netflow.Record) error { return boom })
	if err != boom {
		t.Fatalf("got %v, want consumer error", err)
	}
	left, err := os.ReadDir(opts.SpillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d files left after aborted stream", len(left))
	}
}

// TestStreamFlowsSpillBadDir surfaces a spill-directory failure as an
// error rather than wrong output.
func TestStreamFlowsSpillBadDir(t *testing.T) {
	cfg := DefaultConfig(1.0 / 4096)
	cfg.Seed = 779
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := FlowOptions{
		BenignSourcesPerDay: 60,
		SpillBudget:         recordMemBytes * 10,
		SpillDir:            filepath.Join(t.TempDir(), "does", "not", "exist"),
	}
	err = w.StreamFlows(date(2006, 10, 1), date(2006, 10, 2), opts,
		func(time.Time, []netflow.Record) error { return nil })
	if err == nil {
		t.Fatal("stream with unusable spill dir succeeded")
	}
}

// TestStreamFlowsZeroBudgetNeverSpills checks a zero budget keeps every
// day in memory: no segment appears in SpillDir while the days are
// delivered, and each day arrives in one call.
func TestStreamFlowsZeroBudgetNeverSpills(t *testing.T) {
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true, SpillDir: t.TempDir()}
	calls, flows := 0, 0
	err := w.StreamFlows(date(2006, 10, 1), date(2006, 10, 4), opts, func(day time.Time, recs []netflow.Record) error {
		calls++
		flows += len(recs)
		left, err := os.ReadDir(opts.SpillDir)
		if err != nil {
			return err
		}
		if len(left) != 0 {
			t.Fatalf("%s: %d segments in SpillDir under a zero budget, first %s",
				day.Format(time.DateOnly), len(left), left[0].Name())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 || flows == 0 {
		t.Fatalf("%d deliveries of %d flows over 4 days, want one per day", calls, flows)
	}
}

// TestDayRunsDeliverEmpty checks an empty day still announces itself,
// in one call, as any day kept in memory does.
func TestDayRunsDeliverEmpty(t *testing.T) {
	slot := spillDay(t, t.TempDir(), date(2006, 10, 1), 10, 1, nil)
	got, calls, err := deliverDay(new(hourReader), slot)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(got) != 0 {
		t.Fatalf("deliver called fn %d times with %d records, want once with none", calls, len(got))
	}
}

// spillDay runs records through a day slot as synthesis does: each
// generator call appends perCall of them (the last call the rest), the
// spiller's checkpoint runs after every call under a limit of limit
// records, and the slot finishes the day. The day starts at day.
func spillDay(t testing.TB, dir string, day time.Time, limit, perCall int, records []netflow.Record) *daySlot {
	t.Helper()
	slot := new(daySlot)
	slot.spill.reset(dir, limit, netflow.TimeOf(day))
	var out []netflow.Record
	for rest := records; len(rest) > 0; {
		k := min(len(rest), perCall)
		out = slot.spill.checkpoint(append(out, rest[:k]...))
		rest = rest[k:]
	}
	if err := slot.finish(out); err != nil {
		t.Fatal(err)
	}
	return slot
}

// deliverDay delivers slot's day through r and returns every record it
// handed over and the number of calls.
func deliverDay(r *hourReader, slot *daySlot) ([]netflow.Record, int, error) {
	var got []netflow.Record
	calls := 0
	err := r.deliver(slot, func(recs []netflow.Record) error {
		got = append(got, recs...)
		calls++
		return nil
	})
	return got, calls, err
}

// checkNoSegments fails if any file is left in dir.
func checkNoSegments(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d segment files left behind, first %s", len(left), left[0].Name())
	}
}

// hourRecords is n records of the given hour of day in generation
// order, at seconds drawn from the first span seconds of the hour, so
// they tie heavily when span is small. SrcAddr numbers the records from
// id, so an out-of-order record shows.
func hourRecords(rng *stats.RNG, day time.Time, hour, n, span, id int) []netflow.Record {
	recs := make([]netflow.Record, n)
	for i := range recs {
		start := netflow.TimeOf(day.Add(time.Duration(hour)*time.Hour + time.Duration(rng.Intn(span))*time.Second))
		recs[i] = netflow.Record{
			SrcAddr: netaddr.Addr(id + i), DstAddr: netaddr.Addr(rng.Uint32()),
			Packets: uint32(1 + rng.Intn(9)), Octets: uint32(40 + rng.Intn(2000)),
			First: start, Last: at(start, time.Second),
			SrcPort: uint16(rng.Intn(65536)), DstPort: 80, Proto: netflow.ProtoTCP,
		}
	}
	return recs
}

// shuffled interleaves records in a random generation order, renumbering
// SrcAddr in the new order.
func shuffled(rng *stats.RNG, records []netflow.Record) []netflow.Record {
	out := slices.Clone(records)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	for i := range out {
		out[i].SrcAddr = netaddr.Addr(i)
	}
	return out
}

// checkHourDelivery spills records into dir, an empty directory, as
// spillDay does and holds the delivered day to a stable sort of records:
// one call if the day stayed in memory, one per hour that holds records
// if it spilled, and no segment left afterwards.
func checkHourDelivery(t *testing.T, dir string, day time.Time, limit, perCall int, records []netflow.Record) (spilled bool) {
	t.Helper()
	want := slices.Clone(records)
	referenceSortByTime(want)
	slot := spillDay(t, dir, day, limit, perCall, records)
	spilled = slot.spill.spilled
	wantCalls := 1
	if spilled {
		hours := map[int]bool{}
		for i := range records {
			hours[hourOf(records[i].First, netflow.TimeOf(day))] = true
		}
		wantCalls = len(hours)
	} else {
		checkNoSegments(t, dir)
	}
	got, calls, err := deliverDay(new(hourReader), slot)
	if err != nil {
		t.Fatal(err)
	}
	recordsIdentical(t, "hour delivery", got, want)
	if calls != wantCalls {
		t.Fatalf("spilled=%v: %d calls, want %d", spilled, calls, wantCalls)
	}
	checkNoSegments(t, dir)
	return spilled
}

// TestHourDeliveryMatchesStableSort checks a day delivered through its
// hour segments against a stable sort of its records in generation
// order, on the shapes where splitting a day by hour goes wrong.
func TestHourDeliveryMatchesStableSort(t *testing.T) {
	rng := stats.NewRNG(41)
	day := date(2006, 10, 1)
	ns := func(tm netflow.Time) []netflow.Record {
		return []netflow.Record{{First: tm, Last: tm}}
	}
	const b = segmentBlockRecords
	cases := []struct {
		name     string
		limit    int
		perCall  int
		inMemory bool
		records  func() []netflow.Record
	}{
		{"heavy ties", 300, 7, false, func() []netflow.Record {
			var recs []netflow.Record
			for h := range dayHours {
				recs = append(recs, hourRecords(rng, day, h, 1+rng.Intn(300), 3, 0)...)
			}
			return shuffled(rng, recs)
		}},
		{"hour boundaries", 5, 3, false, func() []netflow.Record {
			// Several records at hh:59:59 and at hh+1:00:00 for every
			// hour, the two sides of each boundary interleaved.
			var recs []netflow.Record
			for h := range dayHours + 1 {
				for range 3 {
					recs = append(recs, hourRecords(rng, day, h, 1, 1, 0)...)
					if h > 0 {
						recs = append(recs, hourRecords(rng, day.Add(-time.Second), h, 1, 1, 0)...)
					}
				}
			}
			return shuffled(rng, recs)
		}},
		{"one-record spill limit", 1, 4, false, func() []netflow.Record {
			var recs []netflow.Record
			for range 20 {
				recs = append(recs, hourRecords(rng, day, rng.Intn(dayHours), 1+rng.Intn(30), 60, 0)...)
			}
			return shuffled(rng, recs)
		}},
		{"segments around the block size", 1000, 100, false, func() []netflow.Record {
			return shuffled(rng, slices.Concat(
				hourRecords(rng, day, 0, b-1, 3600, 0), hourRecords(rng, day, 1, b, 3600, 0),
				hourRecords(rng, day, 2, b+1, 3600, 0), hourRecords(rng, day, 23, 2*b, 3600, 0),
				hourRecords(rng, day, 12, 1, 3600, 0)))
		}},
		{"empty in-memory remainder", 100, 10, false, func() []netflow.Record {
			// 300 records in calls of 10: the last checkpoint spills the
			// buffer, so the day ends with nothing left to spill.
			return shuffled(rng, hourRecords(rng, day, 5, 300, 7200, 0))
		}},
		{"outside the day", 4, 2, false, func() []netflow.Record {
			// Records before the day go to its first hour and after it to
			// its last, so those hours sort them into place.
			return shuffled(rng, slices.Concat(
				hourRecords(rng, day, 0, 20, 7200, 0), hourRecords(rng, day, 22, 20, 7200, 0),
				ns(math.MinInt64), ns(netflow.TimeOf(day)-1), ns(netflow.TimeOf(day.Add(24*time.Hour))),
				ns(math.MaxInt64), ns(math.MaxInt64), ns(math.MinInt64)))
		}},
		{"MaxInt64 after the earlier hours", 6, 3, false, func() []netflow.Record {
			// Every hour is delivered before the last, whose MaxInt64
			// records, tied with one another, go behind its own.
			var recs []netflow.Record
			for h := range dayHours {
				recs = append(recs, hourRecords(rng, day, h, 1+rng.Intn(4), 3600, 0)...)
			}
			return shuffled(rng, slices.Concat(recs, ns(math.MaxInt64), ns(math.MaxInt64), ns(math.MaxInt64)))
		}},
		{"MaxInt64 generated first", 4, 2, false, func() []netflow.Record {
			// The first record spilled is a MaxInt64 one and the day ends
			// with another left in memory; both go behind the last hour.
			recs := slices.Concat(ns(math.MaxInt64), shuffled(rng, slices.Concat(
				hourRecords(rng, day, 1, 10, 3600, 0), hourRecords(rng, day, 23, 10, 3600, 0))),
				ns(math.MaxInt64))
			for i := range recs {
				recs[i].SrcAddr = netaddr.Addr(i)
			}
			return recs
		}},
		{"under the limit, from memory", 100, 9, true, func() []netflow.Record {
			return shuffled(rng, hourRecords(rng, day, 3, 99, 36000, 0))
		}},
		{"empty day", 10, 1, true, func() []netflow.Record { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if spilled := checkHourDelivery(t, t.TempDir(), day, tc.limit, tc.perCall, tc.records()); spilled == tc.inMemory {
				t.Fatalf("spilled = %v, want %v", spilled, !tc.inMemory)
			}
		})
	}
}

// FuzzDaySegments holds the hour segments to the comparison sort. The
// input is a spill limit in records (0 never spills), the records each
// generator call appends, and the records' times, three little-endian
// bytes each: a second from an hour before the day to an hour after it,
// so ties are common and the first and last hours also take records
// from outside the day. The seed corpus in testdata holds the shapes of
// TestHourDeliveryMatchesStableSort that such times can reach.
func FuzzDaySegments(f *testing.F) {
	day := date(2006, 10, 1)
	// Every input leaves the directory empty, or fails.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, limit uint16, perCall uint8, seconds []byte) {
		const span = 26 * 3600
		offsets := make([]int64, len(seconds)/3)
		for i := range offsets {
			v := int64(seconds[3*i]) | int64(seconds[3*i+1])<<8 | int64(seconds[3*i+2])<<16
			offsets[i] = (v%span - 3600) * int64(time.Second)
		}
		checkHourDelivery(t, dir, day, int(limit), max(1, int(perCall)), recordsAt(day, offsets))
	})
}

// TestDayRunsDeliverBadSegments checks an hour segment that is missing
// or cut short fails the delivery with an error, not a panic, and that
// every segment of the day is removed, including those never read.
func TestDayRunsDeliverBadSegments(t *testing.T) {
	rng := stats.NewRNG(42)
	day := date(2006, 10, 1)
	const size = netflow.SegmentRecordSize
	for _, tc := range []struct {
		name   string
		counts []int // records in hours 0, 3, 6, ...
		bad    int   // the segment cut short
		keep   int   // bytes of it that survive; -1 removes it
	}{
		{"empty middle of three", []int{1, 1, 1}, 1, 0},
		{"torn first record", []int{3, 3}, 0, size / 2},
		{"torn in the second block", []int{segmentBlockRecords + 9, 4}, 0, (segmentBlockRecords+5)*size + 20},
		{"short by whole records", []int{5, segmentBlockRecords + 9}, 1, (segmentBlockRecords + 2) * size},
		{"missing", []int{2, 7, 4}, 2, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var recs []netflow.Record
			for i, n := range tc.counts {
				recs = append(recs, hourRecords(rng, day, 3*i, n, 3600, len(recs))...)
			}
			dir := t.TempDir()
			slot := spillDay(t, dir, day, 1, 1, recs)
			bad := slot.spill.hours[3*tc.bad].path
			var err error
			if tc.keep < 0 {
				err = os.Remove(bad)
			} else {
				err = os.Truncate(bad, int64(tc.keep))
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := deliverDay(new(hourReader), slot); err == nil {
				t.Fatal("delivery of a damaged segment succeeded")
			}
			checkNoSegments(t, dir)
		})
	}
}

// TestDayRunsDeliverAllocs checks delivery allocates nothing per record
// and reuses one hour buffer: delivering a spilled day ten times larger
// costs the same allocations, a few per hour segment.
func TestDayRunsDeliverAllocs(t *testing.T) {
	rng := stats.NewRNG(43)
	day := date(2006, 10, 1)
	consume := func([]netflow.Record) error { return nil }
	r := new(hourReader)
	allocs := func(n int) float64 {
		var recs []netflow.Record
		for h := range dayHours {
			recs = append(recs, hourRecords(rng, day, h, n, 3600, len(recs))...)
		}
		slot := spillDay(t, t.TempDir(), day, 1000, 64, shuffled(rng, recs))
		hours := slot.spill.hours
		segs := make([][]byte, dayHours)
		for h := range hours {
			data, err := os.ReadFile(hours[h].path)
			if err != nil {
				t.Fatal(err)
			}
			segs[h] = data
		}
		// Delivery removes the segments, so each run writes them afresh;
		// the writes cost the same allocations at any size.
		return testing.AllocsPerRun(5, func() {
			for h := range hours {
				if err := os.WriteFile(hours[h].path, segs[h], 0o600); err != nil {
					t.Fatal(err)
				}
			}
			slot.spill.hours = hours
			if err := r.deliver(slot, consume); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(300), allocs(3000)
	t.Logf("%v allocations per delivered day", large)
	if small != large {
		t.Fatalf("delivering 24×300 records took %v allocations, 24×3000 took %v", small, large)
	}
	if limit := float64(dayHours * 10); large > limit {
		t.Fatalf("delivering a day of 24 hour segments took %v allocations, want at most %v", large, limit)
	}
}

// TestStreamFlowsHugeBudgetNotPresized streams a small window under a
// 1 GiB spill budget: run buffers grow with the records they hold, so
// the stream allocates a small fraction of the budget.
func TestStreamFlowsHugeBudgetNotPresized(t *testing.T) {
	w := getWorld(t)
	opts := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true, SpillBudget: 1 << 30, SpillDir: t.TempDir()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flows := 0
	if err := w.StreamFlows(date(2006, 10, 1), date(2006, 10, 4), opts, func(_ time.Time, recs []netflow.Record) error {
		flows += len(recs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(opts.SpillBudget)/16 {
		t.Fatalf("streaming %d flows allocated %d bytes under a %d-byte budget", flows, got, opts.SpillBudget)
	}
	checkNoSegments(t, opts.SpillDir)
}
