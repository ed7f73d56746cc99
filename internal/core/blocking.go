package core

import (
	"fmt"
	"math/bits"

	"unclean/internal/blocklist"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/roc"
)

// Partition is the §6.1 decomposition of the candidate population: the
// addresses observed crossing the network border that share a /24 with
// the bot-test report.
type Partition struct {
	// Candidate is every observed source in C_24(R_bot-test) with at
	// least one TCP record.
	Candidate ipset.Set
	// Hostile members also appear in the unclean reports.
	Hostile ipset.Set
	// Unknown members are not in any unclean report and exchanged no
	// payload — suspicious but unprovable from flow data.
	Unknown ipset.Set
	// Innocent members conducted payload-bearing TCP activity and are in
	// no unclean report.
	Innocent ipset.Set
}

// PartitionCandidates partitions the candidate set. unclean is the union
// of the unclean reports (R_unclean in Table 2); payloadBearing is the
// set of sources that exchanged at least one payload-bearing flow.
// Precedence follows §6.1: once an address is hostile it cannot be in
// the other reports.
func PartitionCandidates(candidate, unclean, payloadBearing ipset.Set) Partition {
	hostile := candidate.Intersect(unclean)
	rest := candidate.Difference(hostile)
	innocent := rest.Intersect(payloadBearing)
	unknown := rest.Difference(innocent)
	return Partition{
		Candidate: candidate,
		Hostile:   hostile,
		Unknown:   unknown,
		Innocent:  innocent,
	}
}

// Check verifies the partition invariants: the three parts are disjoint
// and cover the candidate set.
func (p Partition) Check() error {
	if !p.Hostile.Intersect(p.Unknown).IsEmpty() ||
		!p.Hostile.Intersect(p.Innocent).IsEmpty() ||
		!p.Unknown.Intersect(p.Innocent).IsEmpty() {
		return fmt.Errorf("core: partition parts overlap")
	}
	union := p.Hostile.Union(p.Unknown).Union(p.Innocent)
	if !union.Equal(p.Candidate) {
		return fmt.Errorf("core: partition does not cover candidate set (%d vs %d)",
			union.Len(), p.Candidate.Len())
	}
	return nil
}

// BlockingRow is one row of Table 3: the scored outcome of virtually
// blocking C_n(R_bot-test).
type BlockingRow struct {
	// Bits is the blocked prefix length n in [24, 32].
	Bits int
	// TP is Eq. 8: hostile addresses inside the blocked networks.
	TP int
	// FP is Eq. 9: innocent addresses inside the blocked networks.
	FP int
	// Pop is Eq. 7: TP + FP (the unknown population is excluded from
	// scoring).
	Pop int
	// Unknown counts the unscored suspicious addresses inside the
	// blocked networks.
	Unknown int
}

// TPRate returns TP/Pop, the paper's true-positive rate (90% at n=24).
func (r BlockingRow) TPRate() float64 {
	if r.Pop == 0 {
		return 0
	}
	return float64(r.TP) / float64(r.Pop)
}

// TPRateAssumingUnknownHostile returns (TP+Unknown)/(Pop+Unknown): the
// paper's 97% figure under the assumption that unknown addresses are
// hostile.
func (r BlockingRow) TPRateAssumingUnknownHostile() float64 {
	denom := r.Pop + r.Unknown
	if denom == 0 {
		return 0
	}
	return float64(r.TP+r.Unknown) / float64(denom)
}

// BlockingTable evaluates the virtual blocking of C_n(botTest) for every
// n in pr against a candidate partition, producing Table 3. The sweep is
// compiled once into a blocklist.MatcherSet, so each partition member is
// probed a single time and answers its membership in every C_n at once —
// one pass over the candidate population instead of one per prefix
// length.
func BlockingTable(botTest ipset.Set, p Partition, pr PrefixRange) ([]BlockingRow, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if botTest.IsEmpty() {
		return nil, fmt.Errorf("core: empty bot-test report")
	}
	if err := p.Check(); err != nil {
		return nil, err
	}
	ms, err := blocklist.SweepSet(botTest, pr.Lo, pr.Hi)
	if err != nil {
		return nil, err
	}
	rows := make([]BlockingRow, pr.Len())
	for i := range rows {
		rows[i].Bits = pr.Lo + i
	}
	count := func(s ipset.Set, cell func(*BlockingRow) *int) {
		s.Each(func(a netaddr.Addr) bool {
			for mask := ms.Mask(a); mask != 0; mask &= mask - 1 {
				*cell(&rows[bits.TrailingZeros32(mask)])++
			}
			return true
		})
	}
	count(p.Hostile, func(r *BlockingRow) *int { return &r.TP })
	count(p.Innocent, func(r *BlockingRow) *int { return &r.FP })
	count(p.Unknown, func(r *BlockingRow) *int { return &r.Unknown })
	for i := range rows {
		rows[i].Pop = rows[i].TP + rows[i].FP
	}
	return rows, nil
}

// BlockedAddressSpan returns |C_n(botTest)| * 2^(32-n): the number of
// addresses a block list at prefix n covers. The paper contrasts the
// 44,288 blockable addresses at /24 with the 1,030 actually seen (<2%).
func BlockedAddressSpan(botTest ipset.Set, n int) uint64 {
	return uint64(botTest.BlockCount(n)) << (32 - uint(n))
}

// BlockingROC converts the rows of a blocking sweep over partition p
// (BlockingTable's) into ROC operating points: at each prefix length,
// hostile candidates inside the blocked networks are true positives,
// innocents inside are false positives, and the remainder of each class
// (not blocked) supplies FN/TN. Unknowns stay unscored, as in §6.1.
func BlockingROC(rows []BlockingRow, p Partition) (*roc.Curve, error) {
	points := make([]roc.Point, 0, len(rows))
	for _, row := range rows {
		points = append(points, roc.Point{
			Threshold: float64(row.Bits),
			TP:        row.TP,
			FP:        row.FP,
			FN:        p.Hostile.Len() - row.TP,
			TN:        p.Innocent.Len() - row.FP,
		})
	}
	return roc.NewCurve(points)
}
