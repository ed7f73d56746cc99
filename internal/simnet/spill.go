package simnet

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
	"unsafe"

	"unclean/internal/netflow"
)

// External-memory flow synthesis. A day's traffic at paper scale is
// millions of 56-byte records; holding a whole day (let alone a
// worker-pool batch of days) in memory is what capped the old pipeline.
// With FlowOptions.SpillBudget set, a day's synthesis holds at most
// min(budget, spillRecords) records between generator calls: whenever
// its buffer reaches that limit, every record in it is appended, in
// generation order and unsorted, to a temp segment file for its hour of
// the day, in the compact netflow segment encoding. Once a day has
// spilled, the rest of it is spilled at its end too, so a spilled day
// lives wholly on disk as up to 24 hour segments. At delivery each hour
// is read back into one reused buffer, put in stable time order there
// and handed over, so delivering holds one hour and its sort scratch
// however large the day.
//
// Byte-identity with an unspilled day: every generator keeps a record's
// First inside its day (a record outside it would go to the first or
// last hour, which keeps the order), so the hours in order partition the
// day's time order, and an hour's records reach its segment in
// generation order, so its stable sort orders them exactly as one stable
// sort of the whole day does. The record generators never observe the
// spilling (the RNG streams are untouched), so spilled and unspilled
// synthesis yield identical flow sequences.

// recordMemBytes is the in-memory size of one record for budget
// accounting: 56 bytes of plain data, the size of its segment encoding.
var recordMemBytes = int(unsafe.Sizeof(netflow.Record{}))

// spillRecords caps the records a spilling day holds before it writes
// them to its hour segments (448 KiB), whatever the budget.
const spillRecords = 8192

// dayHours is the number of hour segments a spilled day is split into.
const dayHours = 24

// hourWriterBytes is the write buffer of one open hour segment: the 24
// of a day make 768 KiB per slot.
const hourWriterBytes = 32 << 10

// segmentBlockRecords is how many records an hour segment is read back
// in at a time (56 KiB).
const segmentBlockRecords = 1024

// spillLimit is the number of records a day streamed under budget
// holds before it spills: min(budget, spillRecords) in records, at
// least one. A zero budget never spills.
func spillLimit(budget int) int {
	if budget <= 0 {
		return 0
	}
	return max(1, min(budget/recordMemBytes, spillRecords))
}

// hourOf returns the hour of the day starting at day that t falls in,
// with times before the day in its first hour and times after it in its
// last.
func hourOf(t, day netflow.Time) int {
	if t < day {
		return 0
	}
	// uint64(t - day) is the exact distance even when t - day overflows.
	return int(min(uint64(t-day)/uint64(time.Hour), dayHours-1))
}

// hourSegment is one hour of a spilled day on disk: the n records whose
// First falls in the hour, in generation order. While the day is
// synthesized the file is open behind w; the writer is kept for the
// slot's next day.
type hourSegment struct {
	path string
	n    int
	f    *os.File
	w    *bufio.Writer
}

// create opens the segment's file in dir.
func (s *hourSegment) create(dir string) error {
	f, err := os.CreateTemp(dir, "unclean-spill-*.seg")
	if err != nil {
		return fmt.Errorf("simnet: creating spill segment: %w", err)
	}
	s.f, s.path = f, f.Name()
	if s.w == nil {
		s.w = bufio.NewWriterSize(f, hourWriterBytes)
	} else {
		s.w.Reset(f)
	}
	return nil
}

// close flushes and closes an open segment.
func (s *hourSegment) close() error {
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	if err != nil {
		return fmt.Errorf("simnet: writing spill segment: %w", err)
	}
	return nil
}

// daySpiller is the checkpointer of one day streamed under a spill
// budget: whenever the day's buffer holds limit records, they go to the
// day's hour segments and the buffer starts again from empty. A zero
// limit keeps the whole day in the buffer.
type daySpiller struct {
	dir     string
	limit   int
	day     netflow.Time // the first instant of the day
	hours   [dayHours]hourSegment
	spilled bool
	err     error
}

// reset readies the spiller for a new day, keeping its writers.
func (sp *daySpiller) reset(dir string, limit int, day netflow.Time) {
	sp.dir, sp.limit, sp.day = dir, limit, day
	sp.spilled, sp.err = false, nil
	for h := range sp.hours {
		sp.hours[h].path, sp.hours[h].n = "", 0
	}
}

// checkpoint is called between generator invocations: once the buffer
// holds the limit, its records are spilled and the emptied buffer
// returned.
func (sp *daySpiller) checkpoint(out []netflow.Record) []netflow.Record {
	if sp.limit == 0 || len(out) < sp.limit {
		return out
	}
	sp.spill(out)
	return out[:0]
}

// spill appends records to their hour segments, creating each segment
// with its first record. After a failure the day's records are dropped:
// finish reports the error and the day is never delivered.
func (sp *daySpiller) spill(records []netflow.Record) {
	sp.spilled = true
	var buf [netflow.SegmentRecordSize]byte
	for i := range records {
		if sp.err != nil {
			return
		}
		seg := &sp.hours[hourOf(records[i].First, sp.day)]
		if seg.f == nil {
			if sp.err = seg.create(sp.dir); sp.err != nil {
				return
			}
		}
		netflow.EncodeSegmentRecord(buf[:], &records[i])
		if _, err := seg.w.Write(buf[:]); err != nil {
			sp.err = fmt.Errorf("simnet: writing spill segment: %w", err)
			return
		}
		seg.n++
	}
}

// finish ends the day's synthesis: a day that has spilled spills the
// rest of its records too and closes its segments. It returns the
// records the day keeps in memory, all of a day that never spilled and
// none of one that did. On failure every segment is removed.
func (sp *daySpiller) finish(out []netflow.Record) ([]netflow.Record, error) {
	if sp.spilled {
		sp.spill(out)
		out = out[:0]
	}
	for h := range sp.hours {
		if err := sp.hours[h].close(); err != nil && sp.err == nil {
			sp.err = err
		}
	}
	if sp.err != nil {
		sp.cleanup()
		return out[:0], sp.err
	}
	return out, nil
}

// cleanup removes the day's closed segment files.
func (sp *daySpiller) cleanup() {
	for h := range sp.hours {
		s := &sp.hours[h]
		if s.path != "" {
			os.Remove(s.path)
		}
		s.path, s.n = "", 0
	}
}

// hourReader is what a stream's deliveries share from day to day: the
// hour buffer a spilled day is read back into, its sort scratch and the
// block segments are read through. The buffer grows to the largest hour
// the stream has delivered.
type hourReader struct {
	hour  []netflow.Record
	order timeScratch
	block []byte
}

// deliver hands the day synthesized in slot to fn in time order. A day
// that never spilled is in slot.recs, already sorted, and goes in one
// call, so an empty day still announces itself. A spilled day goes an
// hour at a time, one call per hour segment, each hour read into the
// reused buffer and sorted there; the buffer is reused from call to
// call, so fn must not keep it. A spilled day's segments are removed on
// return, whether or not its delivery succeeded.
func (r *hourReader) deliver(slot *daySlot, fn func(records []netflow.Record) error) error {
	sp := &slot.spill
	if !sp.spilled {
		return fn(slot.recs)
	}
	defer sp.cleanup()
	for h := range sp.hours {
		s := &sp.hours[h]
		if s.n == 0 {
			continue
		}
		r.hour = slices.Grow(r.hour[:0], s.n)[:s.n]
		if err := r.read(s.path); err != nil {
			return err
		}
		r.order.sortByTime(r.hour)
		if err := fn(r.hour); err != nil {
			return err
		}
	}
	return nil
}

// read fills the hour buffer from the segment file at path, a block at a
// time.
func (r *hourReader) read(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("simnet: opening spill segment: %w", err)
	}
	defer f.Close()
	if r.block == nil {
		r.block = make([]byte, segmentBlockRecords*netflow.SegmentRecordSize)
	}
	const size = netflow.SegmentRecordSize
	for rest := r.hour; len(rest) > 0; {
		n := min(len(rest), segmentBlockRecords)
		block := r.block[:n*size]
		if _, err := io.ReadFull(f, block); err != nil {
			return fmt.Errorf("simnet: reading spill segment %s: %w", path, err)
		}
		for i := range rest[:n] {
			// The block holds whole records, so the decode cannot fail.
			_ = netflow.DecodeSegmentRecord(block[i*size:], &rest[i])
		}
		rest = rest[n:]
	}
	return nil
}
