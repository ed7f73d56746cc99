package blocklist

import (
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// streamLog builds a log with heavy source repetition (the streaming
// evaluators' cache hit path) alongside one-off sources.
func streamLog(rng *stats.RNG, n int) []netflow.Record {
	// A pool of repeat offenders plus fresh addresses.
	pool := make([]netaddr.Addr, 200)
	for i := range pool {
		pool[i] = netaddr.Addr(rng.Uint32())
	}
	records := make([]netflow.Record, n)
	for i := range records {
		var src netaddr.Addr
		if rng.Bool(0.7) {
			src = pool[rng.Intn(len(pool))]
		} else {
			src = netaddr.Addr(rng.Uint32())
		}
		records[i] = flowFrom(src.String(), rng.Bool(0.3))
	}
	return records
}

func evalsEqual(a, b Eval) bool {
	return a.FlowsBlocked == b.FlowsBlocked &&
		a.FlowsPassed == b.FlowsPassed &&
		a.PayloadBlocked == b.PayloadBlocked &&
		a.BlockedSources.Equal(b.BlockedSources) &&
		a.PassedSources.Equal(b.PassedSources)
}

// TestEvaluatorMatchesEvaluate streams the log in uneven chunks and
// checks the accumulated Eval is identical to both the one-shot compiled
// path and the seed trie-scan path.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	rng := stats.NewRNG(5)
	tr := randomTrie(rng, 400)
	records := streamLog(rng, 30000)

	want := Evaluate(tr, records)
	if trieWant := evaluateTrie(tr, records); !evalsEqual(want, trieWant) {
		t.Fatal("compiled Evaluate differs from the seed trie scan")
	}

	ev := NewEvaluator(Compile(tr))
	for off := 0; off < len(records); {
		end := min(off+1+rng.Intn(4000), len(records))
		ev.Consume(records[off:end])
		off = end
	}
	got := ev.Result()
	if !evalsEqual(got, want) {
		t.Fatalf("streaming Eval differs from in-memory:\n got %d/%d/%d blocked=%d passed=%d\nwant %d/%d/%d blocked=%d passed=%d",
			got.FlowsBlocked, got.FlowsPassed, got.PayloadBlocked, got.BlockedSources.Len(), got.PassedSources.Len(),
			want.FlowsBlocked, want.FlowsPassed, want.PayloadBlocked, want.BlockedSources.Len(), want.PassedSources.Len())
	}

	// Result must not disturb further accumulation.
	ev.Consume(records[:100])
	again := ev.Result()
	if again.FlowsBlocked+again.FlowsPassed != want.FlowsBlocked+want.FlowsPassed+100 {
		t.Fatal("Consume after Result lost flows")
	}
}

// TestSweepEvaluatorMatchesPerListEvaluate checks the one-pass sweep
// produces, for every n, exactly the Eval a standalone Evaluate against
// C_n would — before and after further Consume calls past Results. The
// inputs stress the evaluator's source table as well as the matcher.
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
	rng.Shuffle(len(colliding), func(i, j int) { colliding[i], colliding[j] = colliding[j], colliding[i] })

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

	for _, in := range []struct {
		name    string
		records []netflow.Record
		grows   int // growths the table must have gone through
	}{
		{"mixed", mixed, 0},
		{"colliding", colliding, 0},
		{"growth", growth, 3},
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
					want := Evaluate(FromSet(seed, n, "sweep"), records)
					if !evalsEqual(got[n-lo], want) {
						t.Fatalf("sweep Eval at /%d differs from standalone Evaluate", n)
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
