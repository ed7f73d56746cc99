package simnet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"unsafe"

	"unclean/internal/netflow"
)

// External-memory flow synthesis. A day's traffic at paper scale is
// millions of ~90-byte records; holding a whole day (let alone a
// worker-pool batch of days) in memory is what capped the old pipeline.
// With FlowOptions.SpillBudget set, synthesis accumulates records until
// the budget is exceeded, then spills the run to a temp segment file in
// the compact netflow segment encoding, written in stable time order
// (timeOrder). The day is then reconstructed as a k-way merge of its
// sorted runs — segment files are read back a block at a time, so peak
// memory per day is the budget, the run's sort scratch, one block per
// segment and the delivery chunk, regardless of day size.
//
// Byte-identity with the in-memory path: runs are spilled in generation
// order and the merge breaks timestamp ties by run index, which is
// exactly what one stable sort of the whole day produces. The record
// generators never observe the spilling (the RNG streams are untouched),
// so spilled and unspilled synthesis yield identical flow sequences.

// recordMemBytes approximates the in-memory footprint of one record for
// budget accounting.
var recordMemBytes = int(unsafe.Sizeof(netflow.Record{}))

// spillChunkRecords is the delivery granularity of a merged spilled day.
const spillChunkRecords = 8192

// segmentBlockRecords is how many records a segment cursor reads from
// its file at a time: 224 KiB per open segment.
const segmentBlockRecords = 4096

// daySpiller accumulates one day's spilled runs. A nil spiller is valid
// and never spills — the in-memory path.
type daySpiller struct {
	dir    string
	budget int
	order  *timeScratch // orders each run for its encode
	paths  []string
	counts []int
	err    error
}

// checkpoint is called between generator invocations: when the
// in-memory run exceeds the budget it is spilled in time order and the
// (emptied) buffer returned. On spill failure the error is recorded and
// synthesis continues unspilled; the caller surfaces sp.err at day end.
func (sp *daySpiller) checkpoint(out []netflow.Record) []netflow.Record {
	if sp == nil || sp.err != nil {
		return out
	}
	if len(out)*recordMemBytes < sp.budget {
		return out
	}
	return sp.spill(out)
}

func (sp *daySpiller) spill(out []netflow.Record) []netflow.Record {
	if len(out) == 0 {
		return out
	}
	f, err := os.CreateTemp(sp.dir, "unclean-spill-*.seg")
	if err != nil {
		sp.err = fmt.Errorf("simnet: creating spill segment: %w", err)
		return out
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var buf [netflow.SegmentRecordSize]byte
	// The run is encoded in time order without moving its records.
	for _, i := range sp.order.timeOrder(out) {
		netflow.EncodeSegmentRecord(buf[:], &out[i])
		if _, err := bw.Write(buf[:]); err != nil {
			sp.err = fmt.Errorf("simnet: writing spill segment: %w", err)
			break
		}
	}
	if sp.err == nil {
		if err := bw.Flush(); err != nil {
			sp.err = fmt.Errorf("simnet: writing spill segment: %w", err)
		}
	}
	if cerr := f.Close(); cerr != nil && sp.err == nil {
		sp.err = fmt.Errorf("simnet: closing spill segment: %w", cerr)
	}
	if sp.err != nil {
		os.Remove(f.Name())
		return out
	}
	sp.paths = append(sp.paths, f.Name())
	sp.counts = append(sp.counts, len(out))
	return out[:0]
}

// cleanup removes any spilled segment files.
func (sp *daySpiller) cleanup() {
	for _, p := range sp.paths {
		os.Remove(p)
	}
	sp.paths = nil
}

// dayRuns is one synthesized day as a sequence of sorted runs: zero or
// more on-disk segments (in spill order) plus the final in-memory run.
type dayRuns struct {
	mem    []netflow.Record
	paths  []string
	counts []int
}

// cleanup removes the day's segment files without delivering them.
func (r *dayRuns) cleanup() {
	for _, p := range r.paths {
		os.Remove(p)
	}
	r.paths = nil
}

// deliver merges the day's runs in time order into chunk and hands it to
// fn each time it fills, then once more with the rest. fn is called at
// least once, so empty days still announce themselves, matching the
// in-memory path. chunk is reused from call to call, so fn must not keep
// it. The day's segment files are removed on return, whether or not the
// merge succeeded.
func (r *dayRuns) deliver(chunk []netflow.Record, fn func(records []netflow.Record) error) error {
	if len(r.paths) == 0 {
		return fn(r.mem)
	}
	defer r.cleanup()
	runs := make([]runCursor, len(r.paths)+1)
	defer func() {
		for i := range runs {
			runs[i].close()
		}
	}()
	const blockBytes = segmentBlockRecords * netflow.SegmentRecordSize
	blocks := make([]byte, len(r.paths)*blockBytes)
	for i, p := range r.paths {
		if err := runs[i].openSegment(p, r.counts[i], blocks[i*blockBytes:(i+1)*blockBytes]); err != nil {
			return err
		}
	}
	// The in-memory remainder is the youngest run, so it merges last on
	// timestamp ties — the order a whole-day stable sort would produce.
	runs[len(r.paths)].setMem(r.mem)

	m := newRunMerge(runs)
	delivered := false
	for {
		n, err := m.fill(chunk)
		if err != nil {
			return err
		}
		if n == 0 && delivered {
			return nil
		}
		if err := fn(chunk[:n]); err != nil {
			return err
		}
		delivered = true
		if n < len(chunk) {
			return nil
		}
	}
}

// runCursor walks one sorted run: an in-memory slice, or a spill segment
// read a block at a time into buf. While live, key is the current
// record's First in Unix nanoseconds.
type runCursor struct {
	key  int64
	live bool
	// In-memory run: recs[pos] is the current record.
	recs []netflow.Record
	pos  int
	// Segment-backed run: block holds the unconsumed records of the last
	// block read, the current one first; remaining counts the records
	// still in the file.
	f         *os.File
	path      string
	buf       []byte
	block     []byte
	remaining int
}

// setMem points the cursor at an in-memory run.
func (c *runCursor) setMem(recs []netflow.Record) {
	*c = runCursor{recs: recs, live: len(recs) > 0}
	if c.live {
		c.key = recs[0].First.UnixNano()
	}
}

// openSegment points the cursor at a segment file of count records and
// reads its first block into buf, which holds segmentBlockRecords.
func (c *runCursor) openSegment(path string, count int, buf []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("simnet: opening spill segment: %w", err)
	}
	*c = runCursor{f: f, path: path, buf: buf, remaining: count}
	return c.readBlock()
}

// readBlock reads the segment's next block, clearing live at its end.
func (c *runCursor) readBlock() error {
	n := min(c.remaining, segmentBlockRecords)
	if n == 0 {
		c.live = false
		return nil
	}
	c.block = c.buf[:n*netflow.SegmentRecordSize]
	if _, err := io.ReadFull(c.f, c.block); err != nil {
		return fmt.Errorf("simnet: reading spill segment %s: %w", c.path, err)
	}
	c.remaining -= n
	c.key = netflow.SegmentRecordFirst(c.block)
	c.live = true
	return nil
}

// take writes the current record to dst, decoding it if it comes from a
// segment, and moves to the next one.
func (c *runCursor) take(dst *netflow.Record) error {
	if c.f == nil {
		*dst = c.recs[c.pos]
		c.pos++
		if c.live = c.pos < len(c.recs); c.live {
			c.key = c.recs[c.pos].First.UnixNano()
		}
		return nil
	}
	// The block holds whole records, so the decode cannot fail.
	_ = netflow.DecodeSegmentRecord(c.block, dst)
	c.block = c.block[netflow.SegmentRecordSize:]
	if len(c.block) == 0 {
		return c.readBlock()
	}
	c.key = netflow.SegmentRecordFirst(c.block)
	return nil
}

// close releases a segment-backed cursor's file.
func (c *runCursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// runMerge is the k-way merge of sorted runs by First, breaking ties by
// run index: the order one stable sort of the runs' concatenation
// produces. It serves both spilled-day reconstruction (segment cursors
// plus the in-memory remainder) and cross-day merging (in-memory
// cursors). The runs are the leaves k..2k-1 of a loser tree in heap
// layout: tree[n], for each internal node n ≥ 1, holds the run that lost
// the match played there, and tree[0] the overall winner. Taking the
// winner's record replays only the matches on its leaf's path to the
// root, about log2(k) key compares.
type runMerge struct {
	runs []runCursor
	tree []int
}

// newRunMerge plays the initial tournament over one or more runs.
func newRunMerge(runs []runCursor) *runMerge {
	k := len(runs)
	m := &runMerge{runs: runs, tree: make([]int, k)}
	win := make([]int, 2*k) // win[n]: the winner of node n's subtree
	for i := range runs {
		win[k+i] = i
	}
	for n := k - 1; n > 0; n-- {
		a, b := win[2*n], win[2*n+1]
		if m.less(b, a) {
			a, b = b, a
		}
		win[n], m.tree[n] = a, b
	}
	m.tree[0] = win[1]
	return m
}

// less reports whether run a's current record comes before run b's: a
// live run before an exhausted one, then the earlier key, then the lower
// run index. Exhaustion is a flag, not a sentinel key, so no record's
// timestamp can tie with an exhausted run.
func (m *runMerge) less(a, b int) bool {
	ra, rb := &m.runs[a], &m.runs[b]
	if !ra.live || !rb.live {
		return ra.live
	}
	return ra.key < rb.key || ra.key == rb.key && a < b
}

// fill writes the next records in merge order to dst and returns how
// many it wrote: len(dst) unless the runs ran out first.
func (m *runMerge) fill(dst []netflow.Record) (int, error) {
	k := len(m.runs)
	for i := range dst {
		w := m.tree[0]
		if !m.runs[w].live {
			return i, nil
		}
		if err := m.runs[w].take(&dst[i]); err != nil {
			return i, err
		}
		for n := (w + k) / 2; n > 0; n /= 2 {
			if l := m.tree[n]; m.less(l, w) {
				m.tree[n], w = w, l
			}
		}
		m.tree[0] = w
	}
	return len(dst), nil
}
