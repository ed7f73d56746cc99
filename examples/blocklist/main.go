// Blocklist: the operational payoff of uncleanliness. Compile a
// predictive block list from a five-month-old botnet report, virtually
// apply it to two weeks of border traffic, and score the outcome against
// ground truth — the paper's §6 experiment as a deployable workflow.
//
// Run with: go run ./examples/blocklist
package main

import (
	"fmt"
	"log"

	"unclean/internal/blocklist"
	"unclean/internal/core"
	"unclean/internal/experiments"
)

func main() {
	cfg := experiments.Quick()
	ds, err := experiments.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The stale intelligence: a tiny botnet reported five months before
	// the traffic we are about to filter.
	botTest := ds.Report("bot-test").Addrs
	fmt.Printf("bot-test report: %d addresses (%s), %d /24s\n",
		botTest.Len(), ds.Report("bot-test").Validity(), botTest.BlockCount(24))

	// The /24 block list, and the refinement the paper proposes as
	// future work: a multidimensional score instead of a raw /24 list.
	list := blocklist.FromSet(botTest, 24, "bot-test /24")
	scorer, err := ds.Scores(24)
	if err != nil {
		log.Fatal(err)
	}
	scored := blocklist.FromSet(scorer.Blocklist(0.8), 24, "score>=0.8")

	// Compile both lists into one matcher set and virtually apply them
	// to the October traffic in one pass. Nothing is dropped; every flow
	// is scored as if it were.
	lists, err := blocklist.CompileSet([]*blocklist.Trie{list, scored})
	if err != nil {
		log.Fatal(err)
	}
	sweep := blocklist.NewSweepEvaluator(lists)
	sweep.Consume(ds.Flows)
	evals := sweep.Results()
	eval, scoredEval := evals[0], evals[1]
	fmt.Printf("traffic: %d flows; blocked %d flows from %d sources (%d payload-bearing flows lost)\n\n",
		len(ds.Flows), eval.FlowsBlocked, eval.BlockedSources.Len(), eval.PayloadBlocked)

	// Score against the §6.1 ground-truth partition.
	t2, err := experiments.Table2(ds)
	if err != nil {
		log.Fatal(err)
	}
	p := t2.Partition
	conf := eval.Score(p.Hostile, p.Innocent)
	fmt.Printf("candidate population: %d (hostile %d, unknown %d, innocent %d)\n",
		p.Candidate.Len(), p.Hostile.Len(), p.Unknown.Len(), p.Innocent.Len())
	fmt.Printf("blocklist confusion: %s\n\n", conf)

	// Sweep the prefix length like Table 3 to see precision rise as the
	// blocks narrow.
	rows, err := core.BlockingTable(botTest, p, core.PrefixRange{Lo: 24, Hi: 32})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s %6s %6s %9s\n", "n", "TP", "FP", "TP rate")
	for _, row := range rows {
		fmt.Printf("/%-3d %6d %6d %9.2f\n", row.Bits, row.TP, row.FP, row.TPRate())
	}

	// And the score-driven list.
	scoredConf := scoredEval.Score(p.Hostile, p.Innocent)
	fmt.Printf("\nscore-driven list (%d rules): %s\n", scored.Len(), scoredConf)
}
