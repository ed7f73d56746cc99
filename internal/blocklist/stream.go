package blocklist

import (
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

// This file implements the flow scorer: flow records arrive in chunks (a
// day of synthesized traffic, a NetFlow datagram, a shard of an archive)
// and are scored against one or more compiled lists without the log ever
// being materialized in memory. Rules match sources, not flows, so the
// evaluator keeps one row per source: repeat sources — the overwhelming
// majority of real traffic — skip the LPM probe entirely. Memory is
// bounded by the distinct-source population, not the flow count.

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

// Merge adds other's counts, source by source, to sv, as if sv had
// consumed other's records too. Both must score the same MatcherSet.
func (sv *SweepEvaluator) Merge(other *SweepEvaluator) {
	if sv.ms != other.ms {
		panic("blocklist: merging sweep evaluators of different matcher sets")
	}
	for _, o := range other.rows {
		if o.flows == 0 {
			continue
		}
		row := sv.row(o.src)
		row.flows += o.flows
		row.payload += o.payload
	}
}

// Sources returns the number of distinct sources seen so far.
func (sv *SweepEvaluator) Sources() int { return sv.used }

// Results finalizes the per-list evaluations: element i scores lists[i]
// (or prefix length lo+i for SweepSet) exactly as a per-flow scan of the
// stream against that list alone would. The evaluator may keep consuming
// afterwards; a later Results reflects the larger stream.
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
