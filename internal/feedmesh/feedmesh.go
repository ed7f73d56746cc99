// Package feedmesh aggregates many reputation feeds of wildly different
// quality into one served blocklist — the AbuseHUB scenario: real
// deployments do not get the paper's single trusted report set per
// phenomenon, they get dozens of reporters, some excellent, some lagged,
// some duplicating each other, and occasionally one actively poisoned.
//
// The mesh supervises N concurrent sources. Each feed carries its own
// circuit breaker, windowed load-success SLO, staleness clock, and
// flight events, and is scored every round on the quality signals the
// blacklist-evaluation literature keys on: precision (the share of its
// blocks that enough feeds reported for the merge to list them), report
// lag, and duplicate ratio. Quality drives a reputation weight; the served
// list is the set of blocks whose weighted vote share clears a
// threshold, so a single low-reputation reporter cannot list an address
// on its own.
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

// The mesh's fixed tuning. Intervals scale with Config.Interval: a
// report older than maxLagIntervals intervals loses freshness, and an
// open feed breaker stays open for breakerCooldownIntervals intervals.
const (
	// Bits is the block granularity of the merged list.
	Bits = 24
	// QualityWindow is the number of rounds the quality EWMA integrates
	// over; a feed whose per-round quality collapses crosses minQuality
	// within about one window.
	QualityWindow = 4
	// minQuality is the quarantine line: a feed whose smoothed quality
	// drops below it stops being trusted.
	minQuality = 0.35
	// ProbationLoads is the number of consecutive clean loads a
	// quarantined feed must produce before re-admission.
	ProbationLoads = 3
	// decay multiplies a quarantined feed's merge weight every round, so
	// its last accepted contribution fades out instead of disappearing.
	decay = 0.5
	// breakerThreshold is the number of consecutive load failures that
	// open a feed's circuit breaker.
	breakerThreshold = 3
	// minHealthyFrac is the degradation line: when fewer than this
	// fraction of feeds are healthy the mesh keeps serving its last-good
	// merged list instead of rebuilding from the survivors.
	minHealthyFrac = 0.5

	maxLagIntervals          = 4
	breakerCooldownIntervals = 2
)

// Config parameterizes a Mesh. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Threshold is the weighted vote share a block needs to be listed,
	// in (0, 1]. With eight equal feeds the default 0.34 needs roughly
	// three of them to agree. It is also the corroboration quorum: a
	// feed's block counts toward its precision only when this share of
	// the loaded, non-quarantined feeds, the feed itself included,
	// reported it.
	Threshold float64
	// Interval is the cadence the caller ticks the mesh at; the report
	// age that starts to cost freshness and each feed breaker's cooldown
	// are multiples of it.
	Interval time.Duration
	// Now injects the clock (tests march it deterministically).
	Now func() time.Time
}

// DefaultConfig returns the production-shaped defaults at a one-minute
// cadence.
func DefaultConfig() Config {
	return Config{Threshold: 0.34, Interval: time.Minute}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Threshold == 0 {
		c.Threshold = d.Threshold
	}
	if c.Interval == 0 {
		c.Interval = d.Interval
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

func (c Config) validate() error {
	if c.Threshold <= 0 || c.Threshold > 1 {
		return fmt.Errorf("feedmesh: Threshold must be in (0, 1], got %v", c.Threshold)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("feedmesh: Interval must be positive")
	}
	return nil
}
