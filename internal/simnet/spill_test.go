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
	// Compare through the segment encoding: it covers every
	// analysis-relevant field and normalizes time.Time representation
	// differences (a disk round trip rebuilds wall-clock UTC times that
	// are Equal but not structurally identical).
	var gb, wb [netflow.SegmentRecordSize]byte
	for i := range got {
		netflow.EncodeSegmentRecord(gb[:], &got[i])
		netflow.EncodeSegmentRecord(wb[:], &want[i])
		if gb != wb {
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

// TestDayRunsDeliverEmpty checks an empty day still announces itself,
// matching the in-memory path's contract.
func TestDayRunsDeliverEmpty(t *testing.T) {
	r := &dayRuns{}
	calls := 0
	if err := r.deliver(make([]netflow.Record, spillChunkRecords), func(recs []netflow.Record) error {
		calls++
		if len(recs) != 0 {
			t.Fatalf("unexpected records: %d", len(recs))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("deliver called fn %d times, want 1", calls)
	}
}

// tieRun is n records of run id in generation order, starting within
// span seconds of t0, so runs tie heavily with each other. Each record's
// source is unique, so an out-of-order record shows.
func tieRun(rng *stats.RNG, id, n, span int) []netflow.Record {
	t0 := date(2006, 10, 1)
	recs := make([]netflow.Record, n)
	for i := range recs {
		start := t0.Add(time.Duration(rng.Intn(span)) * time.Second)
		recs[i] = netflow.Record{
			SrcAddr: netaddr.Addr(id<<20 | i), DstAddr: netaddr.Addr(rng.Uint32()),
			Packets: uint32(1 + rng.Intn(9)), Octets: uint32(40 + rng.Intn(2000)),
			First: start, Last: start.Add(time.Second),
			SrcPort: uint16(rng.Intn(65536)), DstPort: 80, Proto: netflow.ProtoTCP,
		}
	}
	return recs
}

// spilledDay lays runs out as synthesizeDayRuns leaves a day: every run
// but the last spilled, in order, to a segment in dir, and the last
// sorted in memory.
func spilledDay(t testing.TB, dir string, runs [][]netflow.Record) *dayRuns {
	t.Helper()
	sp := &daySpiller{dir: dir, order: new(timeScratch)}
	for _, run := range runs[:len(runs)-1] {
		sp.spill(slices.Clone(run))
		if sp.err != nil {
			t.Fatal(sp.err)
		}
	}
	mem := slices.Clone(runs[len(runs)-1])
	sortByTime(mem)
	return &dayRuns{mem: mem, paths: sp.paths, counts: sp.counts}
}

// deliverAll delivers r and returns every record it handed over.
func deliverAll(r *dayRuns) ([]netflow.Record, error) {
	var got []netflow.Record
	err := r.deliver(make([]netflow.Record, spillChunkRecords), func(recs []netflow.Record) error {
		got = append(got, recs...)
		return nil
	})
	return got, err
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

// TestRunMergeMatchesStableSort checks the merge of a spilled day, and
// mergeByTime over the same runs, against a stable sort of the runs'
// concatenation, on the shapes where a k-way merge goes wrong.
func TestRunMergeMatchesStableSort(t *testing.T) {
	rng := stats.NewRNG(41)
	const b = segmentBlockRecords
	maxTime := time.Unix(0, math.MaxInt64).UTC()
	withMax := func(recs []netflow.Record, at ...int) []netflow.Record {
		for _, i := range at {
			recs[i].First, recs[i].Last = maxTime, maxTime
		}
		return recs
	}
	cases := []struct {
		name string
		runs func() [][]netflow.Record
	}{
		{"20 runs, heavy ties", func() [][]netflow.Record {
			runs := make([][]netflow.Record, 20)
			for i := range runs {
				runs[i] = tieRun(rng, i, 1+rng.Intn(300), 40)
			}
			return runs
		}},
		{"segments around the block size", func() [][]netflow.Record {
			return [][]netflow.Record{
				tieRun(rng, 0, b-1, 600), tieRun(rng, 1, b, 600), tieRun(rng, 2, b+1, 600),
				tieRun(rng, 3, 2*b, 600), tieRun(rng, 4, 1, 600), tieRun(rng, 5, 100, 600),
			}
		}},
		{"empty in-memory remainder", func() [][]netflow.Record {
			return [][]netflow.Record{tieRun(rng, 0, 500, 30), tieRun(rng, 1, b+7, 30), nil}
		}},
		{"MaxInt64 after an exhausted lower run", func() [][]netflow.Record {
			return [][]netflow.Record{
				tieRun(rng, 0, 5, 10),
				withMax(tieRun(rng, 1, 50, 10), 3, 17),
				withMax(tieRun(rng, 2, 20, 10), 0),
				withMax(tieRun(rng, 3, 9, 10), 8),
			}
		}},
		{"MaxInt64 in the lowest run", func() [][]netflow.Record {
			return [][]netflow.Record{
				withMax(tieRun(rng, 0, 30, 10), 29),
				tieRun(rng, 1, 40, 10),
				nil,
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := tc.runs()
			want := slices.Concat(runs...)
			referenceSortByTime(want)

			dir := t.TempDir()
			r := spilledDay(t, dir, runs)
			if len(r.paths) != len(runs)-1 {
				t.Fatalf("%d segments, want %d", len(r.paths), len(runs)-1)
			}
			got, err := deliverAll(r)
			if err != nil {
				t.Fatal(err)
			}
			recordsIdentical(t, "spilled merge", got, want)
			checkNoSegments(t, dir)

			perRun := make([][]netflow.Record, len(runs))
			for i, run := range runs {
				perRun[i] = slices.Clone(run)
				sortByTime(perRun[i])
			}
			recordsIdentical(t, "mergeByTime", mergeByTime(perRun), want)
		})
	}
}

// TestDayRunsDeliverBadSegments checks a segment that cannot be read
// fails the delivery with an error, not a panic, and that every segment
// of the day is removed, including those the merge never opened.
func TestDayRunsDeliverBadSegments(t *testing.T) {
	rng := stats.NewRNG(42)
	const size = netflow.SegmentRecordSize
	for _, tc := range []struct {
		name   string
		counts []int // records per segment; the day keeps 10 more in memory
		bad    int   // the segment cut short
		keep   int   // bytes of it that survive
	}{
		{"empty middle of three", []int{1, 1, 1}, 1, 0},
		{"torn first record", []int{3, 3}, 0, size / 2},
		{"torn in the second block", []int{segmentBlockRecords + 9, 4}, 0, (segmentBlockRecords+5)*size + 20},
		{"short by whole records", []int{5, segmentBlockRecords + 9}, 1, (segmentBlockRecords + 2) * size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := make([][]netflow.Record, len(tc.counts)+1)
			for i, n := range tc.counts {
				runs[i] = tieRun(rng, i, n, 100)
			}
			runs[len(tc.counts)] = tieRun(rng, len(tc.counts), 10, 100)
			dir := t.TempDir()
			r := spilledDay(t, dir, runs)
			if err := os.Truncate(r.paths[tc.bad], int64(tc.keep)); err != nil {
				t.Fatal(err)
			}
			if _, err := deliverAll(r); err == nil {
				t.Fatal("delivery of a truncated segment succeeded")
			}
			checkNoSegments(t, dir)
		})
	}
}

// TestDayRunsDeliverAllocs checks the merge allocates nothing per
// record: delivering a day ten times larger costs the same allocations.
func TestDayRunsDeliverAllocs(t *testing.T) {
	rng := stats.NewRNG(43)
	chunk := make([]netflow.Record, spillChunkRecords)
	consume := func([]netflow.Record) error { return nil }
	allocs := func(n int) float64 {
		dir := t.TempDir()
		day := spilledDay(t, dir, [][]netflow.Record{
			tieRun(rng, 0, n, 3600), tieRun(rng, 1, n, 3600), tieRun(rng, 2, n, 3600), tieRun(rng, 3, n, 3600),
		})
		paths, counts := day.paths, day.counts
		segs := make([][]byte, len(paths))
		for i, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			segs[i] = data
		}
		// Delivery removes the segments, so each run writes them afresh;
		// the writes cost the same allocations at any size.
		return testing.AllocsPerRun(5, func() {
			for i, p := range paths {
				if err := os.WriteFile(p, segs[i], 0o600); err != nil {
					t.Fatal(err)
				}
			}
			r := dayRuns{mem: day.mem, paths: paths, counts: counts}
			if err := r.deliver(chunk, consume); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(3000), allocs(30000)
	if small != large {
		t.Fatalf("delivering 4×3000 records took %v allocations, 4×30000 took %v", small, large)
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
