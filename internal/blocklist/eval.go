package blocklist

import (
	"fmt"

	"unclean/internal/ipset"
)

// Eval is the outcome of virtually applying a blocklist to a traffic log:
// nothing is dropped, but every flow and source is scored as if the list
// had been enforced (the paper's §6.2 "virtual blocking capacity").
type Eval struct {
	// FlowsBlocked and FlowsPassed count flow records.
	FlowsBlocked, FlowsPassed int
	// BlockedSources and PassedSources are the distinct source addresses
	// on each side. A source that is blocked is never also passed: rules
	// match sources, not individual flows.
	BlockedSources, PassedSources ipset.Set
	// PayloadBlocked counts blocked flows that were payload-bearing —
	// the collateral a real deployment would feel.
	PayloadBlocked int
}

// Confusion scores an Eval against ground truth: hostile sources that
// should be blocked and innocent sources that should pass. Sources in
// neither set (the unknown population) are ignored, exactly as §6.1
// excludes them from scoring.
type Confusion struct {
	TP, FP, FN, TN int
}

// TPR returns the true positive rate TP/(TP+FN); zero when undefined.
func (c Confusion) TPR() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPR returns the false positive rate FP/(FP+TN); zero when undefined.
func (c Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d FN=%d TN=%d (TPR=%.3f FPR=%.3f)",
		c.TP, c.FP, c.FN, c.TN, c.TPR(), c.FPR())
}

// Score computes the confusion matrix of an evaluation.
func (e Eval) Score(hostile, innocent ipset.Set) Confusion {
	return Confusion{
		TP: e.BlockedSources.Intersect(hostile).Len(),
		FP: e.BlockedSources.Intersect(innocent).Len(),
		FN: e.PassedSources.Intersect(hostile).Len(),
		TN: e.PassedSources.Intersect(innocent).Len(),
	}
}
