package core

// Dimension is one indicator class contributing to the multidimensional
// uncleanliness metric sketched in §7. The phishing result (§5.2) showed a
// single scalar cannot capture uncleanliness: bot history predicts
// scanning and spamming but not phishing, so each class scores its own
// dimension.
type Dimension uint8

// Dimensions.
const (
	DimBot Dimension = iota
	DimScan
	DimSpam
	DimPhish
)

var dimensionNames = [...]string{
	DimBot:   "bot",
	DimScan:  "scan",
	DimSpam:  "spam",
	DimPhish: "phish",
}

// String returns the dimension name.
func (d Dimension) String() string {
	if int(d) < len(dimensionNames) {
		return dimensionNames[d]
	}
	return "unknown"
}

// Score is a per-network uncleanliness estimate, as tracker.Tracker
// computes it.
type Score struct {
	// ByDim holds the per-dimension scores in [0, 1].
	ByDim [4]float64
	// Aggregate is 1 - Π(1 - d_i): the probability that a network is
	// unclean in at least one dimension, treating dimensions as
	// independent (which §5.2 showed phishing essentially is).
	Aggregate float64
}
