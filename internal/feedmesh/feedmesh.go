// Package feedmesh aggregates many reputation feeds of wildly different
// quality into one served blocklist — the AbuseHUB scenario: real
// deployments do not get the paper's single trusted report set per
// phenomenon, they get dozens of reporters, some excellent, some lagged,
// some duplicating each other, and occasionally one actively poisoned.
//
// The mesh supervises N concurrent sources. Each feed carries its own
// circuit breaker, windowed load-success SLO, staleness clock, and
// flight events, and is scored every round on the quality signals the
// blacklist-evaluation literature keys on: overlap with ground truth
// (precision/false-positive rate through the §6 evaluator's Confusion
// matrix when an oracle is configured, cross-feed corroboration when
// not), report lag, and duplicate ratio. Quality drives a reputation
// weight; the served list is the set of blocks whose weighted vote share
// clears a threshold, so a single low-reputation reporter cannot list an
// address on its own.
//
// Robustness is the core contract:
//
//   - a feed whose quality or availability collapses is quarantined
//     automatically, and its contribution decays out of the merge over
//     several rounds instead of vanishing in one reload;
//   - a quarantined feed is re-admitted only after a probation window of
//     consecutive clean loads;
//   - when a majority of feeds are unhealthy the mesh degrades to its
//     last-good merged list rather than serving a minority's opinion.
//
// Every decision is driven by an injectable clock and the deterministic
// order of the configured sources, so chaos scenarios replay exactly.
package feedmesh

import (
	"context"
	"fmt"
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
)

// Batch is one feed load: the reported addresses plus the time the feed
// claims the data was current. A zero AsOf means "current as of this
// load" — sources without data timestamps (a directory of report files)
// leave it zero and staleness is tracked purely by load success.
type Batch struct {
	Addrs ipset.Set
	// Reasons names why a block is listed, keyed by its base address at
	// the mesh's Bits. A merged block takes the reason of its heaviest
	// contributor that gives one, else "feedmesh".
	Reasons map[netaddr.Addr]string
	AsOf    time.Time
}

// Source is one reputation feed the mesh ingests. Load is called once
// per merge round (concurrently across sources) and must be safe to
// call again after failure.
type Source interface {
	Name() string
	Load(ctx context.Context) (Batch, error)
}

// funcSource adapts a closure to Source.
type funcSource struct {
	name string
	load func(context.Context) (Batch, error)
}

func (s funcSource) Name() string                            { return s.name }
func (s funcSource) Load(ctx context.Context) (Batch, error) { return s.load(ctx) }

// SourceFunc wraps a load function as a Source — the adapter simulated
// and adversarial reporters use.
func SourceFunc(name string, load func(context.Context) (Batch, error)) Source {
	return funcSource{name: name, load: load}
}

// Truth is the optional ground-truth oracle for quality scoring:
// addresses known hostile and addresses known clean. Reporting a clean
// address is a false positive; evaluation deployments (and the chaos
// harness) wire the generator's ground truth here, production meshes
// leave it nil and fall back to cross-feed corroboration.
type Truth struct {
	Hostile, Clean ipset.Set
}

// State is a feed's position in the quarantine state machine.
type State uint8

// Feed states. Healthy feeds merge at full reputation weight; probation
// feeds are loading cleanly again but not yet trusted; quarantined feeds
// only contribute the decaying residue of their last accepted batch.
const (
	StateHealthy State = iota
	StateProbation
	StateQuarantined
)

var stateNames = [...]string{"healthy", "probation", "quarantined"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Config parameterizes a Mesh. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Bits is the block granularity of the merged list (default 24).
	Bits int
	// Threshold is the weighted vote share a block needs to be listed,
	// in (0, 1]. With eight equal feeds the default 0.34 needs roughly
	// three of them to agree.
	Threshold float64
	// Interval is the cadence the caller ticks the mesh at; MaxLag and
	// BreakerCooldown default to multiples of it.
	Interval time.Duration
	// QualityWindow is the number of rounds the quality EWMA integrates
	// over; a feed whose per-round quality collapses crosses MinQuality
	// within about one window.
	QualityWindow int
	// MinQuality is the quarantine line: a feed whose smoothed quality
	// drops below it stops being trusted.
	MinQuality float64
	// ProbationLoads is the number of consecutive clean loads a
	// quarantined feed must produce before re-admission.
	ProbationLoads int
	// Decay multiplies a quarantined feed's merge weight every round, so
	// its last accepted contribution fades out instead of disappearing.
	Decay float64
	// MaxLag is the report age (now minus Batch.AsOf) above which
	// freshness starts penalizing quality.
	MaxLag time.Duration
	// BreakerThreshold and BreakerCooldown configure each feed's circuit
	// breaker (consecutive load failures to open; how long to stay open).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// MinHealthyFrac is the degradation line: when fewer than this
	// fraction of feeds are healthy the mesh keeps serving its last-good
	// merged list instead of rebuilding from the survivors.
	MinHealthyFrac float64
	// MaxPoisonFrac is the operator's bound on the fraction of merged
	// blocks that are known-clean (Truth mode). The mesh reports the
	// observed fraction per round; chaos tests assert it stays under
	// this bound.
	MaxPoisonFrac float64
	// Truth, when set, scores feeds against ground truth instead of
	// cross-feed corroboration.
	Truth *Truth
	// Now injects the clock (tests march it deterministically).
	Now func() time.Time
}

// DefaultConfig returns the production-shaped defaults at a one-minute
// cadence.
func DefaultConfig() Config {
	return Config{
		Bits:             24,
		Threshold:        0.34,
		Interval:         time.Minute,
		QualityWindow:    4,
		MinQuality:       0.35,
		ProbationLoads:   3,
		Decay:            0.5,
		BreakerThreshold: 3,
		MinHealthyFrac:   0.5,
		MaxPoisonFrac:    0.05,
	}
}

// withDefaults fills derived and zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Bits == 0 {
		c.Bits = d.Bits
	}
	if c.Threshold == 0 {
		c.Threshold = d.Threshold
	}
	if c.Interval == 0 {
		c.Interval = d.Interval
	}
	if c.QualityWindow == 0 {
		c.QualityWindow = d.QualityWindow
	}
	if c.MinQuality == 0 {
		c.MinQuality = d.MinQuality
	}
	if c.ProbationLoads == 0 {
		c.ProbationLoads = d.ProbationLoads
	}
	if c.Decay == 0 {
		c.Decay = d.Decay
	}
	if c.MaxLag == 0 {
		c.MaxLag = 4 * c.Interval
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = d.BreakerThreshold
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 2 * c.Interval
	}
	if c.MinHealthyFrac == 0 {
		c.MinHealthyFrac = d.MinHealthyFrac
	}
	if c.MaxPoisonFrac == 0 {
		c.MaxPoisonFrac = d.MaxPoisonFrac
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

func (c Config) validate() error {
	if c.Bits < 8 || c.Bits > 32 {
		return fmt.Errorf("feedmesh: Bits must be in [8, 32], got %d", c.Bits)
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		return fmt.Errorf("feedmesh: Threshold must be in (0, 1], got %v", c.Threshold)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("feedmesh: Interval must be positive")
	}
	if c.MinQuality <= 0 || c.MinQuality >= 1 {
		return fmt.Errorf("feedmesh: MinQuality must be in (0, 1), got %v", c.MinQuality)
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		return fmt.Errorf("feedmesh: Decay must be in (0, 1), got %v", c.Decay)
	}
	if c.MinHealthyFrac < 0 || c.MinHealthyFrac > 1 {
		return fmt.Errorf("feedmesh: MinHealthyFrac must be in [0, 1], got %v", c.MinHealthyFrac)
	}
	if c.ProbationLoads < 1 {
		return fmt.Errorf("feedmesh: ProbationLoads must be at least 1")
	}
	return nil
}
