package blocklist

import (
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// evaluateTrie scores records against t one flow at a time, straight
// off the radix trie: the reference SweepEvaluator is held to.
func evaluateTrie(t *Trie, records []netflow.Record) Eval {
	blocked := ipset.NewBuilder(0)
	passed := ipset.NewBuilder(0)
	var e Eval
	for i := range records {
		r := &records[i]
		if t.Blocks(r.SrcAddr) {
			e.FlowsBlocked++
			blocked.Add(r.SrcAddr)
			if r.PayloadBearing() {
				e.PayloadBlocked++
			}
		} else {
			e.FlowsPassed++
			passed.Add(r.SrcAddr)
		}
	}
	e.BlockedSources = blocked.Build()
	e.PassedSources = passed.Build()
	return e
}

func evalsEqual(a, b Eval) bool {
	return a.FlowsBlocked == b.FlowsBlocked &&
		a.FlowsPassed == b.FlowsPassed &&
		a.PayloadBlocked == b.PayloadBlocked &&
		a.BlockedSources.Equal(b.BlockedSources) &&
		a.PassedSources.Equal(b.PassedSources)
}

// TestSweepEvaluatorMatchesPerListEvaluate checks the one-pass sweep
// produces, for every n, exactly the Eval a per-flow trie scan against
// C_n would — streamed in uneven chunks, and before and after further
// Consume calls past Results. The inputs stress the evaluator's source
// table as well as the matcher.
func TestSweepEvaluatorMatchesPerListEvaluate(t *testing.T) {
	rng := stats.NewRNG(13)
	b := ipset.NewBuilder(0)
	for i := 0; i < 300; i++ {
		b.Add(netaddr.Addr(rng.Uint32()))
	}
	seed := b.Build()
	const lo, hi = 24, 32
	ms, err := SweepSet(seed, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	// near draws a source inside one of the seed's /20 neighbourhoods,
	// which the sweep blocks at some n.
	near := func() netaddr.Addr {
		return seed.At(rng.Intn(seed.Len()))&^0xfff | netaddr.Addr(rng.Uint32()&0xfff)
	}

	// Half the traffic comes from inside the seed's /20 neighbourhoods so
	// the sweep actually blocks something at every n.
	mixed := make([]netflow.Record, 20000)
	for i := range mixed {
		var src netaddr.Addr
		if rng.Bool(0.5) {
			src = near()
		} else {
			src = netaddr.Addr(rng.Uint32())
		}
		mixed[i] = flowFrom(src.String(), rng.Bool(0.3))
	}

	// Sources whose hashes share their top bits, the bits that pick a
	// row, so they all start probing at the new table's last row: probes
	// chain through occupied rows and wrap to row 0, before and after
	// the table grows. src = h·inv makes src·sweepHashMul = h. Blocked
	// sources near the seed that hash to the last few rows join them.
	inv := uint32(sweepHashMul) // Newton's iteration for the inverse mod 2^32
	for i := 0; i < 4; i++ {
		inv *= 2 - sweepHashMul*inv
	}
	if sweepHashMul*inv != 1 {
		t.Fatal("no inverse of the hash multiplier")
	}
	const lastRow = 1<<sweepTableBits - 1
	var colliding []netflow.Record
	for j := uint32(0); j < 3000; j++ {
		h := uint32(lastRow)<<(32-sweepTableBits) | rng.Uint32()>>sweepTableBits
		src := netaddr.Addr(h * inv)
		for k := rng.Intn(3); k >= 0; k-- {
			colliding = append(colliding, flowFrom(src.String(), rng.Bool(0.3)))
		}
	}
	for n := 0; n < 400; {
		src := near()
		if sweepSlot(uint32(src), 32-sweepTableBits) < lastRow-7 {
			continue
		}
		colliding = append(colliding, flowFrom(src.String(), rng.Bool(0.5)))
		n++
	}
	for i := len(colliding) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		colliding[i], colliding[j] = colliding[j], colliding[i]
	}

	// Enough distinct sources to grow the table at least three times.
	growth := make([]netflow.Record, 0, 30000)
	for len(growth) < cap(growth) {
		src := netaddr.Addr(rng.Uint32())
		if rng.Bool(0.3) {
			src = near()
		}
		for k := rng.Intn(2); k >= 0; k-- {
			growth = append(growth, flowFrom(src.String(), rng.Bool(0.3)))
		}
	}

	// Heavy source repetition, as in real traffic: most flows come from
	// a pool of repeat sources, half of them near the seed.
	pool := make([]netaddr.Addr, 200)
	for i := range pool {
		pool[i] = netaddr.Addr(rng.Uint32())
		if i%2 == 0 {
			pool[i] = near()
		}
	}
	repeats := make([]netflow.Record, 30000)
	for i := range repeats {
		src := netaddr.Addr(rng.Uint32())
		if rng.Bool(0.7) {
			src = pool[rng.Intn(len(pool))]
		}
		repeats[i] = flowFrom(src.String(), rng.Bool(0.3))
	}

	for _, in := range []struct {
		name    string
		records []netflow.Record
		grows   int // growths the table must have gone through
	}{
		{"mixed", mixed, 0},
		{"colliding", colliding, 0},
		{"growth", growth, 3},
		{"repeats", repeats, 1},
	} {
		t.Run(in.name, func(t *testing.T) {
			sv := NewSweepEvaluator(ms)
			check := func(records []netflow.Record) {
				t.Helper()
				got := sv.Results()
				if len(got) != hi-lo+1 {
					t.Fatalf("Results returned %d evals, want %d", len(got), hi-lo+1)
				}
				srcs := make([]netaddr.Addr, len(records))
				for i := range records {
					srcs[i] = records[i].SrcAddr
				}
				if want := ipset.FromAddrs(srcs).Len(); sv.Sources() != want {
					t.Fatalf("Sources = %d, want %d", sv.Sources(), want)
				}
				anyBlocked := false
				for n := lo; n <= hi; n++ {
					want := evaluateTrie(FromSet(seed, n, "sweep"), records)
					if !evalsEqual(got[n-lo], want) {
						t.Fatalf("sweep Eval at /%d differs from the per-flow trie scan", n)
					}
					if got[n-lo].FlowsBlocked > 0 {
						anyBlocked = true
					}
				}
				if !anyBlocked {
					t.Fatal("sweep blocked nothing; test traffic is not exercising the matcher")
				}
			}
			consume := func(records []netflow.Record) {
				for off := 0; off < len(records); {
					end := min(off+1+rng.Intn(3000), len(records))
					sv.Consume(records[off:end])
					off = end
				}
			}

			consume(in.records)
			check(in.records)
			if rows := len(sv.rows); rows < 1<<(sweepTableBits+in.grows) {
				t.Fatalf("table has %d rows, want at least %d growths from %d", rows, in.grows, 1<<sweepTableBits)
			}
			// Results must not disturb further accumulation.
			more := append(in.records[:len(in.records):len(in.records)], mixed[:5000]...)
			consume(mixed[:5000])
			check(more)
		})
	}
}

// TestSweepEvaluatorMergeProperty splits random record sets, with
// sources repeated across chunks and near the seed, into arbitrary
// chunks over k evaluators, merges them in any order and compares every
// list's counts and both source sets with one evaluator over the whole
// slice.
func TestSweepEvaluatorMergeProperty(t *testing.T) {
	rng := stats.NewRNG(17)
	b := ipset.NewBuilder(0)
	for i := 0; i < 200; i++ {
		b.Add(netaddr.Addr(rng.Uint32()))
	}
	seed := b.Build()
	ms, err := SweepSet(seed, 24, 32)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		pool := make([]netaddr.Addr, 1+rng.Intn(6000))
		for i := range pool {
			pool[i] = netaddr.Addr(rng.Uint32())
			if rng.Bool(0.5) {
				pool[i] = seed.At(rng.Intn(seed.Len()))&^0xff | netaddr.Addr(rng.Intn(256))
			}
		}
		recs := make([]netflow.Record, 1+rng.Intn(20000))
		for i := range recs {
			recs[i] = flowFrom(pool[rng.Intn(len(pool))].String(), rng.Bool(0.3))
		}
		whole := NewSweepEvaluator(ms)
		whole.Consume(recs)
		want := whole.Results()

		k := 1 + rng.Intn(5)
		parts := make([]*SweepEvaluator, k)
		for i := range parts {
			parts[i] = NewSweepEvaluator(ms)
		}
		for rest := recs; len(rest) > 0; {
			n := min(len(rest), 1+rng.Intn(700))
			parts[rng.Intn(k)].Consume(rest[:n])
			rest = rest[n:]
		}
		order := rng.Perm(k)
		acc := parts[order[0]]
		for _, i := range order[1:] {
			acc.Merge(parts[i])
		}
		if acc.Sources() != whole.Sources() {
			t.Fatalf("trial %d (k=%d): %d sources merged, %d whole", trial, k, acc.Sources(), whole.Sources())
		}
		for n, got := range acc.Results() {
			if !evalsEqual(got, want[n]) {
				t.Fatalf("trial %d (k=%d): /%d merged %+v, whole %+v", trial, k, 24+n, got, want[n])
			}
		}
	}
}
