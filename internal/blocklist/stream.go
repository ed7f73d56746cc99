package blocklist

import (
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

// This file implements one-pass streaming evaluation: flow records
// arrive in chunks (a day of synthesized traffic, a NetFlow datagram, a
// shard of an archive) and are scored against a compiled matcher without
// the log ever being materialized in memory. Rules match sources, not
// flows, so both evaluators keep per-source verdicts — the Evaluator in
// a direct-mapped cache, the SweepEvaluator in a table with one row per
// source: repeat sources — the overwhelming majority of real traffic —
// skip the LPM probe and the source-set insert entirely. Memory is
// bounded by the distinct-source population, not the flow count.

// cacheBits sizes the Evaluator's direct-mapped verdict cache (2^13
// slots ≈ 48 KiB); collisions fall back to a fresh probe, never to a
// wrong verdict.
const cacheBits = 13

// compactThreshold bounds the pending (duplicate-bearing) entries in the
// source-set builders before they are compacted down to their distinct
// membership, keeping streaming memory proportional to distinct sources.
const compactThreshold = 1 << 20

// Evaluator scores a stream of flow records against one compiled
// blocklist, accumulating the same Eval a one-shot Evaluate over the
// concatenated log would produce. Feed it chunks with Consume and
// finish with Result. Not safe for concurrent use.
type Evaluator struct {
	m *Matcher

	flowsBlocked, flowsPassed, payloadBlocked int
	blocked, passed                           *ipset.Builder

	// Direct-mapped per-source verdict cache: keys holds the source
	// address, vals 0 (empty), 1 (blocked) or 2 (passed).
	cacheKeys []uint32
	cacheVals []uint8
}

// NewEvaluator returns a streaming evaluator over a compiled matcher.
func NewEvaluator(m *Matcher) *Evaluator {
	return &Evaluator{
		m:         m,
		blocked:   ipset.NewBuilder(0),
		passed:    ipset.NewBuilder(0),
		cacheKeys: make([]uint32, 1<<cacheBits),
		cacheVals: make([]uint8, 1<<cacheBits),
	}
}

// cacheSlot maps a source address onto the direct-mapped cache.
func cacheSlot(src uint32) uint32 {
	return (src * 2654435761) >> (32 - cacheBits)
}

// Consume scores one chunk of records. Chunks may arrive in any order;
// the accumulated Eval is order-independent.
func (ev *Evaluator) Consume(records []netflow.Record) {
	if len(records) == 0 {
		return
	}
	start := time.Now()
	for i := range records {
		r := &records[i]
		src := uint32(r.SrcAddr)
		h := cacheSlot(src)
		var isBlocked bool
		if ev.cacheKeys[h] == src && ev.cacheVals[h] != 0 {
			isBlocked = ev.cacheVals[h] == 1
		} else {
			isBlocked = ev.m.Blocks(r.SrcAddr)
			ev.cacheKeys[h] = src
			if isBlocked {
				ev.cacheVals[h] = 1
				ev.blocked.Add(r.SrcAddr)
			} else {
				ev.cacheVals[h] = 2
				ev.passed.Add(r.SrcAddr)
			}
		}
		if isBlocked {
			ev.flowsBlocked++
			if r.PayloadBearing() {
				ev.payloadBlocked++
			}
		} else {
			ev.flowsPassed++
		}
	}
	if ev.blocked.Len()+ev.passed.Len() > compactThreshold {
		compact(ev.blocked)
		compact(ev.passed)
	}
	elapsed := time.Since(start)
	evalSeconds.Observe(elapsed)
	evalFlows.Add(uint64(len(records)))
	lookupSeconds.Observe(elapsed / time.Duration(len(records)))
}

// compact collapses a builder's pending entries (which may hold
// duplicates from cache evictions) down to the distinct membership.
func compact(b *ipset.Builder) {
	s := b.Build() // resets b
	b.AddSet(s)
}

// Result finalizes and returns the accumulated evaluation. The
// evaluator may keep consuming afterwards; a later Result reflects the
// larger stream.
func (ev *Evaluator) Result() Eval {
	e := Eval{
		FlowsBlocked:   ev.flowsBlocked,
		FlowsPassed:    ev.flowsPassed,
		PayloadBlocked: ev.payloadBlocked,
	}
	e.BlockedSources = ev.blocked.Build()
	e.PassedSources = ev.passed.Build()
	// Builders were reset by Build; re-seed them with the built sets so
	// further Consume calls keep accumulating.
	ev.blocked.AddSet(e.BlockedSources)
	ev.passed.AddSet(e.PassedSources)
	return e
}

// SweepEvaluator scores a stream of flow records against every list of
// a MatcherSet at once — the §6 prefix sweep as a single pass. It keeps
// one row per distinct source in a flat open-addressed table: the
// source's list mask, probed once when the source first appears, and
// its flow and payload-bearing flow counts. Consume is then one table
// probe and two increments per record; Results expands the rows into
// the per-list counts and source sets.
type SweepEvaluator struct {
	ms *MatcherSet

	// rows is the table, linear-probed from sweepSlot; len(rows) is a
	// power of two kept at least twice used. A row is inserted only as
	// its first flow is counted, so flows == 0 marks an empty row.
	rows  []sourceRow
	used  int
	shift uint // 32 - log2(len(rows))
}

// sourceRow is one distinct source's share of the sweep.
type sourceRow struct {
	src   uint32
	mask  uint32 // bit n: list n blocks the source
	flows int
	// payload counts payload-bearing flows, and only for sources some
	// list blocks: a source no list blocks adds to no PayloadBlocked.
	payload int
}

// sweepTableBits sizes a new SweepEvaluator's table (4096 rows, 96 KiB).
const sweepTableBits = 12

// sweepHashMul is the odd multiplier of sweepSlot's Fibonacci hashing:
// about 2^32 divided by the golden ratio.
const sweepHashMul = 0x9e3779b9

// sweepSlot is src's home row: the top bits of src · sweepHashMul.
func sweepSlot(src uint32, shift uint) int {
	return int((src * sweepHashMul) >> shift)
}

// NewSweepEvaluator returns a streaming sweep evaluator.
func NewSweepEvaluator(ms *MatcherSet) *SweepEvaluator {
	return &SweepEvaluator{
		ms:    ms,
		rows:  make([]sourceRow, 1<<sweepTableBits),
		shift: 32 - sweepTableBits,
	}
}

// Consume scores one chunk of records against all lists.
func (sv *SweepEvaluator) Consume(records []netflow.Record) {
	if len(records) == 0 {
		return
	}
	start := time.Now()
	for i := range records {
		r := &records[i]
		row := sv.row(uint32(r.SrcAddr))
		row.flows++
		if row.mask != 0 && r.PayloadBearing() {
			row.payload++
		}
	}
	elapsed := time.Since(start)
	evalSeconds.Observe(elapsed)
	evalFlows.Add(uint64(len(records)))
	lookupSeconds.Observe(elapsed / time.Duration(len(records)))
}

// row returns src's row, inserting it with its mask, and no flows yet,
// on first sight.
func (sv *SweepEvaluator) row(src uint32) *sourceRow {
	last := len(sv.rows) - 1
	for i := sweepSlot(src, sv.shift); ; i = (i + 1) & last {
		row := &sv.rows[i]
		if row.flows != 0 {
			if row.src == src {
				return row
			}
			continue
		}
		if 2*(sv.used+1) > len(sv.rows) {
			sv.grow()
			return sv.row(src)
		}
		sv.used++
		*row = sourceRow{src: src, mask: sv.ms.Mask(netaddr.Addr(src))}
		return row
	}
}

// grow doubles the table and re-inserts every row.
func (sv *SweepEvaluator) grow() {
	old := sv.rows
	sv.rows = make([]sourceRow, 2*len(old))
	sv.shift--
	last := len(sv.rows) - 1
	for _, row := range old {
		if row.flows == 0 {
			continue
		}
		i := sweepSlot(row.src, sv.shift)
		for sv.rows[i].flows != 0 {
			i = (i + 1) & last
		}
		sv.rows[i] = row
	}
}

// Sources returns the number of distinct sources seen so far.
func (sv *SweepEvaluator) Sources() int { return sv.used }

// Results finalizes the per-list evaluations: element i scores lists[i]
// (or prefix length lo+i for SweepSet) exactly as a standalone Evaluate
// against that list would. The evaluator may keep consuming afterwards;
// a later Results reflects the larger stream.
func (sv *SweepEvaluator) Results() []Eval {
	k := sv.ms.Lists()
	out := make([]Eval, k)
	builders := make([]*ipset.Builder, 2*k) // blocked then passed per list
	for i := range builders {
		builders[i] = ipset.NewBuilder(0)
	}
	for _, row := range sv.rows {
		if row.flows == 0 {
			continue
		}
		a := netaddr.Addr(row.src)
		for n := range out {
			e := &out[n]
			if row.mask>>uint(n)&1 == 1 {
				e.FlowsBlocked += row.flows
				e.PayloadBlocked += row.payload
				builders[2*n].Add(a)
			} else {
				e.FlowsPassed += row.flows
				builders[2*n+1].Add(a)
			}
		}
	}
	for n := range out {
		out[n].BlockedSources = builders[2*n].Build()
		out[n].PassedSources = builders[2*n+1].Build()
	}
	return out
}
