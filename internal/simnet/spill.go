package simnet

import (
	"bufio"
	"container/heap"
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
// sorted runs — segment files stream back through buffered readers, so
// peak memory per day is the budget, the run's sort scratch, and one read
// buffer per run, regardless of day size.
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

// daySpiller accumulates one day's spilled runs. A nil spiller is valid
// and never spills — the in-memory path.
type daySpiller struct {
	dir    string
	budget int
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
	for _, i := range timeOrder(out) {
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

// deliver merges the day's runs in time order and hands the records to
// fn in bounded chunks. Segment files are consumed through buffered
// readers and removed afterwards. fn is called at least once, so empty
// days still announce themselves, matching the in-memory path.
func (r *dayRuns) deliver(fn func(records []netflow.Record) error) error {
	if len(r.paths) == 0 {
		return fn(r.mem)
	}
	curs := make([]*runCursor, 0, len(r.paths)+1)
	defer func() {
		for _, c := range curs {
			c.close()
		}
	}()
	for i, p := range r.paths {
		c, err := openSegmentCursor(p, r.counts[i])
		if err != nil {
			return err
		}
		curs = append(curs, c)
	}
	// The in-memory remainder is the youngest run, so it merges last on
	// timestamp ties — the order a whole-day stable sort would produce.
	curs = append(curs, newMemCursor(r.mem))

	chunk := make([]netflow.Record, 0, spillChunkRecords)
	delivered := false
	err := mergeCursors(curs, func(rec *netflow.Record) error {
		chunk = append(chunk, *rec)
		if len(chunk) == spillChunkRecords {
			if err := fn(chunk); err != nil {
				return err
			}
			delivered = true
			chunk = make([]netflow.Record, 0, spillChunkRecords)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(chunk) > 0 || !delivered {
		return fn(chunk)
	}
	return nil
}

// runCursor walks one sorted run: an in-memory slice, or a spill
// segment streamed through a buffered reader.
type runCursor struct {
	// In-memory run.
	recs []netflow.Record
	pos  int
	// Segment-backed run.
	path      string
	f         *os.File
	br        *bufio.Reader
	remaining int
	rec       netflow.Record

	valid bool
}

func newMemCursor(recs []netflow.Record) *runCursor {
	return &runCursor{recs: recs, valid: len(recs) > 0}
}

func openSegmentCursor(path string, count int) (*runCursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("simnet: opening spill segment: %w", err)
	}
	c := &runCursor{path: path, f: f, br: bufio.NewReaderSize(f, 1<<20), remaining: count}
	if err := c.advance(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// cur returns the cursor's current record; valid until the next advance.
func (c *runCursor) cur() *netflow.Record {
	if c.f != nil {
		return &c.rec
	}
	return &c.recs[c.pos]
}

// advance moves to the next record, clearing valid at run end.
func (c *runCursor) advance() error {
	if c.f == nil {
		if c.valid {
			c.pos++
		}
		c.valid = c.pos < len(c.recs)
		return nil
	}
	if c.remaining == 0 {
		c.valid = false
		return nil
	}
	var buf [netflow.SegmentRecordSize]byte
	if _, err := io.ReadFull(c.br, buf[:]); err != nil {
		c.valid = false
		return fmt.Errorf("simnet: reading spill segment %s: %w", c.path, err)
	}
	if err := netflow.DecodeSegmentRecord(buf[:], &c.rec); err != nil {
		c.valid = false
		return err
	}
	c.remaining--
	c.valid = true
	return nil
}

// close releases a segment-backed cursor and deletes its file.
func (c *runCursor) close() {
	if c.f != nil {
		c.f.Close()
		os.Remove(c.path)
		c.f = nil
	}
	c.valid = false
}

// mergeCursors streams the union of the sorted runs to emit in time
// order, breaking timestamp ties by cursor index (run order). This is
// the k-way merge shared by cross-day merging (in-memory cursors) and
// spilled-day reconstruction (segment cursors).
func mergeCursors(curs []*runCursor, emit func(*netflow.Record) error) error {
	h := &recordHeap{curs: curs}
	for i := range curs {
		if curs[i].valid {
			h.order = append(h.order, i)
		}
	}
	heap.Init(h)
	for len(h.order) > 0 {
		i := h.order[0]
		if err := emit(curs[i].cur()); err != nil {
			return err
		}
		if err := curs[i].advance(); err != nil {
			return err
		}
		if !curs[i].valid {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
	}
	return nil
}

// recordHeap is a min-heap of cursor indices ordered by each cursor's
// current record (ties by cursor index, preserving stability).
type recordHeap struct {
	curs  []*runCursor
	order []int
}

func (h *recordHeap) Len() int { return len(h.order) }
func (h *recordHeap) Less(a, b int) bool {
	i, j := h.order[a], h.order[b]
	ri, rj := h.curs[i].cur(), h.curs[j].cur()
	if !ri.First.Equal(rj.First) {
		return ri.First.Before(rj.First)
	}
	return i < j
}
func (h *recordHeap) Swap(a, b int) { h.order[a], h.order[b] = h.order[b], h.order[a] }
func (h *recordHeap) Push(x any)    { h.order = append(h.order, x.(int)) }
func (h *recordHeap) Pop() any {
	x := h.order[len(h.order)-1]
	h.order = h.order[:len(h.order)-1]
	return x
}
