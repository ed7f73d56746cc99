// Package experiments is the reproduction harness: it builds the dataset
// (world + detector-derived reports, the analogue of Table 1) and
// regenerates every table and figure in the paper's evaluation. The CLI
// (cmd/uncleanctl), the examples, and the root bench_test.go all drive
// this package; EXPERIMENTS.md records its output against the paper.
package experiments

import (
	"fmt"
	"time"
)

// Config parameterizes a reproduction run.
type Config struct {
	// Scale is the fraction of the paper's data scale (see simnet).
	Scale float64
	// Seed fixes all randomness.
	Seed uint64
	// Draws is the number of random control subsets per estimate; the
	// paper uses 1000.
	Draws int
	// BenignPerDay is the number of distinct benign sources per day in
	// synthesized traffic.
	BenignPerDay int
}

// Default returns the configuration used by the CLI: 1/64 of the paper's
// scale with the paper's 1000-draw estimates.
func Default() Config {
	return Config{
		Scale:        1.0 / 64,
		Seed:         20061001,
		Draws:        1000,
		BenignPerDay: 400,
	}
}

// Quick returns a configuration small enough for unit tests and smoke
// runs: 1/500 of the paper's scale and 100-draw estimates.
func Quick() Config {
	return Config{
		Scale:        0.002,
		Seed:         20061001,
		Draws:        100,
		BenignPerDay: 60,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("experiments: Scale must be in (0,1]")
	}
	if c.Draws < 1 {
		return fmt.Errorf("experiments: Draws must be positive")
	}
	if c.BenignPerDay < 0 {
		return fmt.Errorf("experiments: BenignPerDay must be non-negative")
	}
	return nil
}

// threshold is the paper's better-predictor criterion (§5): a report is
// the better predictor at a prefix length if it beats the control in at
// least 95% of draws.
const threshold = 0.95

// The paper's fixed experiment windows.
var (
	// UncleanFrom/To is the two-week window with both provided and
	// observed reports on every class (Table 1).
	UncleanFrom = time.Date(2006, 10, 1, 0, 0, 0, 0, time.UTC)
	UncleanTo   = time.Date(2006, 10, 14, 0, 0, 0, 0, time.UTC)
	// PhishFrom begins the long phishing report (the paper's ran
	// 2006/05/01–2006/11/01; the horizon ends 10/14).
	PhishFrom = time.Date(2006, 5, 1, 0, 0, 0, 0, time.UTC)
	// PhishTestTo ends the old phishing sub-report used in Figure 5
	// (the paper's R_phish-test had 1386 addresses; at reduced scale a
	// two-month early window keeps the sub-report statistically usable).
	PhishTestTo = time.Date(2006, 6, 30, 0, 0, 0, 0, time.UTC)
	// PhishPresentFrom begins the "present" phishing sub-report (the
	// paper's 2302-address sub-report; widened for the same reason).
	PhishPresentFrom = time.Date(2006, 9, 1, 0, 0, 0, 0, time.UTC)
	// Fig1From/To is the scanning time-series window of Figure 1.
	Fig1From = time.Date(2006, 4, 1, 0, 0, 0, 0, time.UTC)
	Fig1To   = time.Date(2006, 7, 31, 0, 0, 0, 0, time.UTC)
)

// Paper-reported cardinalities (Table 1), used for scaling and for the
// paper-vs-measured columns in EXPERIMENTS.md.
const (
	PaperBotSize     = 621861
	PaperPhishSize   = 53789
	PaperScanSize    = 151908
	PaperSpamSize    = 397306
	PaperBotTestSize = 186
	PaperControlSize = 46899928
)
