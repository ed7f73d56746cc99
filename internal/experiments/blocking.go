package experiments

import (
	"fmt"
	"strings"

	"unclean/internal/core"
	"unclean/internal/report"
	"unclean/internal/roc"
)

// Table2Result reproduces Table 2: the reports used for the prediction
// (blocking) test — the unclean union and the candidate partition.
type Table2Result struct {
	UncleanSize int
	Partition   core.Partition
}

// Table2 derives the candidate population and its partition from the
// October traffic: candidates are TCP sources sharing a /24 with
// R_bot-test; hostile/unknown/innocent follow §6.1. It is derived once
// per dataset, and Table 3 and the tracker read the same result.
func Table2(ds *Dataset) (*Table2Result, error) {
	ds.table2Once.Do(func() { ds.table2, ds.table2Err = table2(ds) })
	return ds.table2, ds.table2Err
}

func table2(ds *Dataset) (*Table2Result, error) {
	botTest := ds.Report("bot-test").Addrs
	candidate := ds.TCPSources.WithinBlocks(botTest, 24)
	unclean := ds.Unclean()
	p := core.PartitionCandidates(candidate, unclean, ds.PayloadSources)
	if err := p.Check(); err != nil {
		return nil, err
	}
	return &Table2Result{UncleanSize: unclean.Len(), Partition: p}, nil
}

// ID implements Result.
func (r *Table2Result) ID() string { return "table2" }

// Title implements Result.
func (r *Table2Result) Title() string { return "Table 2: reports used for prediction test" }

// Render implements Result.
func (r *Table2Result) Render() string {
	t := newTable("Tag", "Type", "Size", "Reporting method")
	t.addRow("unclean", report.Provided.String(), fmt.Sprintf("%d", r.UncleanSize),
		"The union of the four unclean reports, note that there is overlap")
	t.addRow("candidate", report.Observed.String(), fmt.Sprintf("%d", r.Partition.Candidate.Len()),
		"IP addresses crossing the network border in the same /24s as R_bot-test")
	t.addRow("hostile", report.Observed.String(), fmt.Sprintf("%d", r.Partition.Hostile.Len()),
		"Members of R_candidate also present in R_unclean")
	t.addRow("unknown", report.Observed.String(), fmt.Sprintf("%d", r.Partition.Unknown.Len()),
		"Members of R_candidate not in R_unclean, but engaged in suspicious activity")
	t.addRow("innocent", report.Observed.String(), fmt.Sprintf("%d", r.Partition.Innocent.Len()),
		"Members of R_candidate not present in R_hostile or R_unknown")
	return t.String()
}

// Table3Result reproduces Table 3: true/false positive counts of
// virtually blocking C_n(R_bot-test) for n in [24, 32].
type Table3Result struct {
	Rows []core.BlockingRow
	// Span24 is the number of addresses blockable at /24 and Seen the
	// number actually observed (the paper's "<2% of the potential set").
	Span24 uint64
	Seen   int
	// ROC is the §6.2 ROC view of the sweep; AUC summarizes it.
	ROC *roc.Curve
}

// Table3 runs the blocking evaluation.
func Table3(ds *Dataset) (*Table3Result, error) {
	t2, err := Table2(ds)
	if err != nil {
		return nil, err
	}
	botTest := ds.Report("bot-test").Addrs
	rows, err := core.BlockingTable(botTest, t2.Partition, core.PrefixRange{Lo: 24, Hi: 32})
	if err != nil {
		return nil, err
	}
	curve, err := core.BlockingROC(rows, t2.Partition)
	if err != nil {
		return nil, err
	}
	return &Table3Result{
		Rows:   rows,
		Span24: core.BlockedAddressSpan(botTest, 24),
		Seen:   t2.Partition.Candidate.Len(),
		ROC:    curve,
	}, nil
}

// ID implements Result.
func (r *Table3Result) ID() string { return "table3" }

// Title implements Result.
func (r *Table3Result) Title() string { return "Table 3: observed true and false positive counts" }

// Render implements Result.
func (r *Table3Result) Render() string {
	var b strings.Builder
	t := newTable("n", "TP(n)", "FP(n)", "pop(n)", "R_unknown", "TP rate", "TP rate (unknown hostile)")
	for _, row := range r.Rows {
		t.addRow(fmt.Sprintf("%d", row.Bits),
			fmt.Sprintf("%d", row.TP),
			fmt.Sprintf("%d", row.FP),
			fmt.Sprintf("%d", row.Pop),
			fmt.Sprintf("%d", row.Unknown),
			fmt.Sprintf("%.2f", row.TPRate()),
			fmt.Sprintf("%.2f", row.TPRateAssumingUnknownHostile()))
	}
	b.WriteString(t.String())
	frac := 0.0
	if r.Span24 > 0 {
		frac = float64(r.Seen) / float64(r.Span24)
	}
	fmt.Fprintf(&b, "\nblockable addresses at /24: %d; observed communicating: %d (%.2f%%)\n",
		r.Span24, r.Seen, 100*frac)
	fmt.Fprintf(&b, "ROC over prefix length: AUC = %.3f, best operating point /%g (Youden)\n",
		r.ROC.AUC(), r.ROC.Best().Threshold)
	return b.String()
}
