package core

import (
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/stats"
)

func TestPartitionCandidates(t *testing.T) {
	candidate := ipset.MustParse("10.1.1.1 10.1.1.2 10.1.1.3 10.1.1.4 10.1.1.5")
	unclean := ipset.MustParse("10.1.1.1 10.1.1.2 99.9.9.9")
	payload := ipset.MustParse("10.1.1.2 10.1.1.3")
	p := PartitionCandidates(candidate, unclean, payload)
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if p.Hostile.Len() != 2 {
		t.Errorf("hostile = %v", p.Hostile)
	}
	// 10.1.1.2 is hostile even though payload-bearing (hostile wins).
	if p.Innocent.Len() != 1 || !p.Innocent.Contains(ipset.MustParse("10.1.1.3").At(0)) {
		t.Errorf("innocent = %v", p.Innocent)
	}
	if p.Unknown.Len() != 2 {
		t.Errorf("unknown = %v", p.Unknown)
	}
}

func TestPartitionCheckCatchesCorruption(t *testing.T) {
	p := Partition{
		Candidate: ipset.MustParse("1.1.1.1 2.2.2.2"),
		Hostile:   ipset.MustParse("1.1.1.1"),
		Unknown:   ipset.MustParse("1.1.1.1"), // overlaps hostile
		Innocent:  ipset.MustParse("2.2.2.2"),
	}
	if p.Check() == nil {
		t.Error("overlapping partition accepted")
	}
	p2 := Partition{
		Candidate: ipset.MustParse("1.1.1.1 2.2.2.2 3.3.3.3"),
		Hostile:   ipset.MustParse("1.1.1.1"),
		Innocent:  ipset.MustParse("2.2.2.2"),
	}
	if p2.Check() == nil {
		t.Error("non-covering partition accepted")
	}
}

func TestBlockingTableShape(t *testing.T) {
	// bot-test in two /24s; hostiles cluster there, innocents thin out
	// at longer prefixes.
	botTest := ipset.MustParse("10.1.1.7 10.2.2.7")
	hostile := ipset.MustParse("10.1.1.9 10.1.1.10 10.2.2.9 11.0.0.1")
	unknown := ipset.MustParse("10.1.1.200 10.2.2.200")
	innocent := ipset.MustParse("10.1.1.250 12.0.0.1")
	candidate := hostile.Union(unknown).Union(innocent)
	p := Partition{Candidate: candidate, Hostile: hostile, Unknown: unknown, Innocent: innocent}
	rows, err := BlockingTable(botTest, p, PrefixRange{24, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	r24 := rows[0]
	// 11.0.0.1 and 12.0.0.1 are outside the bot-test /24s.
	if r24.TP != 3 || r24.FP != 1 || r24.Pop != 4 || r24.Unknown != 2 {
		t.Fatalf("/24 row = %+v", r24)
	}
	if r24.TPRate() != 0.75 {
		t.Errorf("TPRate = %v", r24.TPRate())
	}
	if got := r24.TPRateAssumingUnknownHostile(); got != 5.0/6.0 {
		t.Errorf("TPRateAssumingUnknownHostile = %v", got)
	}
	// Counts must be monotone non-increasing with n.
	for i := 1; i < len(rows); i++ {
		if rows[i].TP > rows[i-1].TP || rows[i].FP > rows[i-1].FP || rows[i].Unknown > rows[i-1].Unknown {
			t.Errorf("counts increased from /%d to /%d", rows[i-1].Bits, rows[i].Bits)
		}
	}
	// At /32 only exact bot-test addresses count; none of the candidate
	// addresses equal a bot-test address.
	r32 := rows[8]
	if r32.TP != 0 || r32.FP != 0 || r32.Unknown != 0 {
		t.Errorf("/32 row = %+v", r32)
	}
}

func TestBlockingTableMonotoneProperty(t *testing.T) {
	rng := stats.NewRNG(42)
	botTest := clusteredSet(rng, 50, 40)
	candidate := clusteredSet(rng, 300, 60)
	unclean := candidate.Sample(90, rng)
	payload := candidate.Sample(120, rng)
	p := PartitionCandidates(candidate, unclean, payload)
	rows, err := BlockingTable(botTest, p, PrefixRange{24, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TP > rows[i-1].TP || rows[i].FP > rows[i-1].FP ||
			rows[i].Pop > rows[i-1].Pop || rows[i].Unknown > rows[i-1].Unknown {
			t.Fatalf("non-monotone rows: %+v -> %+v", rows[i-1], rows[i])
		}
		if rows[i].Pop != rows[i].TP+rows[i].FP {
			t.Fatalf("Pop != TP+FP in %+v", rows[i])
		}
	}
}

func TestBlockingTableErrors(t *testing.T) {
	good := Partition{
		Candidate: ipset.MustParse("1.1.1.1"),
		Hostile:   ipset.MustParse("1.1.1.1"),
	}
	if _, err := BlockingTable(ipset.Set{}, good, PrefixRange{24, 32}); err == nil {
		t.Error("empty bot-test accepted")
	}
	if _, err := BlockingTable(ipset.MustParse("1.1.1.1"), good, PrefixRange{30, 20}); err == nil {
		t.Error("bad range accepted")
	}
	bad := Partition{
		Candidate: ipset.MustParse("1.1.1.1 2.2.2.2"),
		Hostile:   ipset.MustParse("1.1.1.1"),
	}
	if _, err := BlockingTable(ipset.MustParse("1.1.1.1"), bad, PrefixRange{24, 32}); err == nil {
		t.Error("broken partition accepted")
	}
}

func TestBlockingROC(t *testing.T) {
	botTest := ipset.MustParse("10.1.1.7 10.2.2.7")
	hostile := ipset.MustParse("10.1.1.9 10.1.1.10 10.2.2.9 11.0.0.1")
	unknown := ipset.MustParse("10.1.1.200")
	innocent := ipset.MustParse("10.1.1.250 12.0.0.1")
	p := Partition{
		Candidate: hostile.Union(unknown).Union(innocent),
		Hostile:   hostile, Unknown: unknown, Innocent: innocent,
	}
	rows, err := BlockingTable(botTest, p, PrefixRange{24, 32})
	if err != nil {
		t.Fatal(err)
	}
	curve, err := BlockingROC(rows, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 9 {
		t.Fatalf("points = %d", len(curve.Points))
	}
	// Blocking beats chance: hostiles cluster in bot-test /24s.
	if auc := curve.AUC(); auc <= 0.5 {
		t.Errorf("AUC = %v, want > 0.5", auc)
	}
	for _, pt := range curve.Points {
		if pt.TP+pt.FN != hostile.Len() || pt.FP+pt.TN != innocent.Len() {
			t.Fatalf("confusion does not partition classes: %+v", pt)
		}
	}
}

func TestBlockedAddressSpan(t *testing.T) {
	botTest := ipset.MustParse("10.1.1.7 10.2.2.7 10.2.2.8")
	// Two /24s -> 512 addresses.
	if got := BlockedAddressSpan(botTest, 24); got != 512 {
		t.Errorf("span at /24 = %d, want 512", got)
	}
	if got := BlockedAddressSpan(botTest, 32); got != 3 {
		t.Errorf("span at /32 = %d, want 3", got)
	}
}

// TestBlockingTableMatchesWithinBlocks differentially tests the compiled
// one-pass sweep against the seed per-n WithinBlocks implementation on
// randomized populations.
func TestBlockingTableMatchesWithinBlocks(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 5; trial++ {
		bot := ipset.NewBuilder(0)
		cand := [3]*ipset.Builder{ipset.NewBuilder(0), ipset.NewBuilder(0), ipset.NewBuilder(0)}
		for i := 0; i < 150; i++ {
			seed := netaddr.Addr(rng.Uint32())
			bot.Add(seed)
			// Partition members scattered around the seed's neighbourhood so
			// every prefix length in the sweep separates some of them.
			for j := 0; j < 3; j++ {
				near := seed&^0x3ff | netaddr.Addr(rng.Uint32()&0x3ff)
				cand[rng.Intn(3)].Add(near)
			}
		}
		hostile := cand[0].Build()
		unknown := cand[1].Build().Difference(hostile)
		innocent := cand[2].Build().Difference(hostile).Difference(unknown)
		p := Partition{
			Candidate: hostile.Union(unknown).Union(innocent),
			Hostile:   hostile,
			Unknown:   unknown,
			Innocent:  innocent,
		}
		botTest := bot.Build()
		for _, pr := range []PrefixRange{{24, 32}, {20, 28}, {32, 32}} {
			got, err := BlockingTable(botTest, p, pr)
			if err != nil {
				t.Fatal(err)
			}
			want := blockingTableWithinBlocks(botTest, p, pr)
			if len(got) != len(want) {
				t.Fatalf("trial %d %v: %d rows vs %d", trial, pr, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d %v row %d:\ncompiled %+v\nseed     %+v", trial, pr, i, got[i], want[i])
				}
			}
		}
	}
}

// blockingTableWithinBlocks is the seed implementation: one WithinBlocks
// set operation per prefix length, fanned out over the worker pool. Kept
// as the reference the compiled sweep is differentially tested against.
func blockingTableWithinBlocks(botTest ipset.Set, p Partition, pr PrefixRange) []BlockingRow {
	rows := make([]BlockingRow, pr.Len())
	stats.Parallel(pr.Len(), func(_, i int) {
		n := pr.Lo + i
		row := BlockingRow{
			Bits:    n,
			TP:      p.Hostile.WithinBlocks(botTest, n).Len(),
			FP:      p.Innocent.WithinBlocks(botTest, n).Len(),
			Unknown: p.Unknown.WithinBlocks(botTest, n).Len(),
		}
		row.Pop = row.TP + row.FP
		rows[i] = row
	})
	return rows
}
