package simnet

import (
	"errors"
	"fmt"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// The fold over days. Every consumer of a window that only counts —
// per-source sets, the observed-report detectors, the §6 sweep — needs
// its records, not their order. Fold therefore skips the time sort, the
// cross-day merge and the spill path: each day is synthesized by one
// worker of the shared pool, straight into that worker's accumulator,
// and the per-worker accumulators merge in worker order once every day
// is done, the shard-and-merge discipline of obs/sketch. A consumer that
// also needs the ordered log counts each day's records in its fold, and
// SynthesizeCounted then places every day at its final offset in one
// log of the exact size.

// A DayFolder is one worker's accumulator in a fold over days (Fold).
type DayFolder interface {
	// Consume takes the next chunk of the current day's records in
	// generation order. The chunk is valid only until Consume returns.
	Consume(records []netflow.Record)
	// EndDay marks the end of day's records: every record consumed
	// since the previous EndDay, if any, has its First inside day.
	EndDay(day time.Time)
}

// foldChunkRecords is the size of the chunks Fold hands a DayFolder
// (448 KiB of records); only a day's last chunk may be shorter.
const foldChunkRecords = 8192

// Fold synthesizes every day of [from, to] (inclusive dates) and hands
// its records to a DayFolder. Each day runs on one worker of the shared
// stats pool, in that worker's reused buffer: between generator calls
// every whole chunk is handed to the worker's folder, so the buffer
// stays near one chunk plus one generator call's records however large
// the day. newFolder makes one folder per worker, in worker order,
// before any day starts; Fold returns them in that order for the caller
// to merge. Which worker synthesizes which day depends on scheduling,
// so what the caller derives from the merged folders must not depend on
// how the days were split among them; counts, sets and per-day results
// do not. The records are SynthesizeFlows's for the same window and
// options, in generation order within each day.
func Fold[F DayFolder](w *World, from, to time.Time, opts FlowOptions, newFolder func() (F, error)) ([]F, error) {
	lo, hi := w.clampDays(from, to)
	n := hi - lo + 1
	folders := make([]F, stats.Workers(n))
	for i := range folders {
		f, err := newFolder()
		if err != nil {
			return nil, err
		}
		folders[i] = f
	}
	bufs := make([][]netflow.Record, len(folders))
	stats.Parallel(n, func(worker, i int) {
		f := folders[worker]
		out := w.synthesizeDay(lo+i, opts, bufs[worker][:0], foldSink{f})
		for rest := out; len(rest) > 0; {
			k := min(len(rest), foldChunkRecords)
			f.Consume(rest[:k])
			rest = rest[k:]
		}
		f.EndDay(w.Date(lo + i))
		bufs[worker] = out[:0]
	})
	return folders, nil
}

// foldSink is the checkpoint of a folded day: it hands the folder every
// whole chunk the buffer holds and moves the rest to the buffer's front.
type foldSink struct{ f DayFolder }

func (s foldSink) checkpoint(out []netflow.Record) []netflow.Record {
	whole := len(out) - len(out)%foldChunkRecords
	if whole == 0 {
		return out
	}
	for i := 0; i < whole; i += foldChunkRecords {
		s.f.Consume(out[i : i+foldChunkRecords])
	}
	return out[:copy(out, out[whole:])]
}

// SynthesizeCounted returns SynthesizeFlows's log for the window and
// options, given the number of records each of its days holds, in date
// order, as a fold over the same window and options counted them. The
// log is allocated once at its exact size and each day is synthesized
// straight into its own slot of it, then put in time order there by the
// stable radix order on the worker that synthesized it; no day is held
// anywhere else. Every generator keeps a record's First inside its day,
// so the days in date order are the log's time order. A perDay of the
// wrong length, or a day whose records differ in number from its count,
// is an error, and no log is returned.
func (w *World) SynthesizeCounted(from, to time.Time, opts FlowOptions, perDay []int) ([]netflow.Record, error) {
	lo, hi := w.clampDays(from, to)
	n := max(hi-lo+1, 0)
	if len(perDay) != n {
		return nil, fmt.Errorf("simnet: %d day counts for a window of %d days", len(perDay), n)
	}
	offs := make([]int, n+1)
	largest := 0
	for i, c := range perDay {
		if c < 0 {
			return nil, fmt.Errorf("simnet: %s counted %d records", w.Date(lo+i).Format(time.DateOnly), c)
		}
		offs[i+1] = offs[i] + c
		largest = max(largest, c)
	}
	log := make([]netflow.Record, offs[n])
	// Each worker's sort scratch is sized once, for the largest day.
	order := make([]timeScratch, stats.Workers(n))
	for i := range order {
		order[i].reserve(largest)
	}
	errs := make([]error, n)
	stats.Parallel(n, func(worker, i int) {
		// The slot's capacity is the day's count, so a day that outgrows
		// it moves to a buffer of its own and leaves its neighbour alone.
		day := w.synthesizeDay(lo+i, opts, log[offs[i]:offs[i]:offs[i+1]], nil)
		if len(day) != perDay[i] {
			errs[i] = fmt.Errorf("simnet: %s has %d records, counted %d", w.Date(lo+i).Format(time.DateOnly), len(day), perDay[i])
			return
		}
		order[worker].sortByTime(day)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return log, nil
}

// SourceSets is the fold accumulator of a window's distinct sources:
// those with at least one payload-bearing flow, and those with at least
// one TCP flow.
type SourceSets struct {
	payload, tcp         *ipset.Builder
	lastPayload, lastTCP netaddr.Addr
}

// NewSourceSets returns an empty accumulator.
func NewSourceSets() *SourceSets {
	return &SourceSets{payload: ipset.NewBuilder(0), tcp: ipset.NewBuilder(0)}
}

// Consume adds the sources of records. Generators emit a source's flows
// together, so a source that repeats the previous qualifying record's
// is skipped before it reaches the builder.
func (s *SourceSets) Consume(records []netflow.Record) {
	for i := range records {
		r := &records[i]
		if r.PayloadBearing() && (s.payload.Len() == 0 || r.SrcAddr != s.lastPayload) {
			s.payload.Add(r.SrcAddr)
			s.lastPayload = r.SrcAddr
		}
		if r.Proto == netflow.ProtoTCP && (s.tcp.Len() == 0 || r.SrcAddr != s.lastTCP) {
			s.tcp.Add(r.SrcAddr)
			s.lastTCP = r.SrcAddr
		}
	}
}

// Merge adds other's sources to s.
func (s *SourceSets) Merge(other *SourceSets) {
	payload, tcp := other.Sets()
	s.payload.AddSet(payload)
	s.tcp.AddSet(tcp)
}

// Sets returns the payload-bearing and the TCP sources consumed so far.
func (s *SourceSets) Sets() (payload, tcp ipset.Set) {
	payload, tcp = s.payload.Build(), s.tcp.Build()
	s.payload.AddSet(payload)
	s.tcp.AddSet(tcp)
	return payload, tcp
}
