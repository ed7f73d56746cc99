package feedmesh_test

// The acceptance chaos scenario for the feed mesh: eight feeds — four
// honest, two poisoned, one flapping, one dead — driven by a seeded
// fault schedule against a live DNSBL server. The mesh scores them as
// dnsbld does, by cross-feed corroboration; the generator's ground
// truth only measures the outcome. The mesh must quarantine the bad
// feeds within one quality window, keep the known-clean share of the
// served list under maxPoisonFrac every round, keep answering queries
// throughout, re-admit feeds that turn clean only after probation, and
// do all of it identically under the same seed, at every seed swept.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/dnsbl"
	"unclean/internal/feedmesh"
	"unclean/internal/ipset"
	"unclean/internal/simnet"
)

// chaosRounds is how long the scenario runs; the schedule below flips
// the flapping feed and one poisoner clean at flipRound.
const (
	chaosRounds = 26
	flipRound   = 12
)

// maxPoisonFrac bounds the known-clean share of the served list, every
// round, in both chaos suites.
const maxPoisonFrac = 0.05

// chaosSeeds are the seeds the eight-feed scenario sweeps: 42 first,
// the seed the determinism check replays.
var chaosSeeds = []uint64{42, 1, 2, 3, 4, 5, 6, 7, 8}

// roundRecord is one round's observable outcome, used for the
// determinism comparison.
type roundRecord struct {
	merged   ipset.Set
	healthy  int
	degraded bool
	states   string // "clean1=healthy clean2=healthy ..." sorted
}

// chaosOutcome is everything the scenario asserts on.
type chaosOutcome struct {
	rounds        []roundRecord
	quarantinedAt map[string]int // feed -> first non-healthy round
	readmittedAt  map[string]int // feed -> first healthy-again round
}

// mutableReporter lets the scenario swap a reporter implementation
// between rounds (Tick is synchronous, so this is race-free).
type mutableReporter struct{ r *simnet.Reporter }

// servedPoison returns the block bases of the mesh's served list and
// the share of them that is known-clean space.
func servedPoison(mesh *feedmesh.Mesh, cleanBits ipset.Set) (ipset.Set, float64) {
	merged := ipset.NewBuilder(0)
	if l := mesh.List(); l != nil {
		for _, e := range l.Entries() {
			merged.Add(e.Block.Base())
		}
	}
	mset := merged.Build()
	if mset.Len() == 0 {
		return mset, 0
	}
	return mset, float64(mset.Intersect(cleanBits).Len()) / float64(mset.Len())
}

// runChaosScenario executes the full scenario under seed. serve
// controls whether a live DNSBL server rides along (both determinism
// runs use the same value so serving cannot perturb the comparison —
// and must not).
func runChaosScenario(t *testing.T, seed uint64, serve bool) chaosOutcome {
	t.Helper()
	sim := simnet.NewFeedSim(simnet.FeedSimConfig{
		Seed:          seed,
		Rounds:        chaosRounds + 2,
		HostileBlocks: 12,
		CleanBlocks:   36,
		PerBlock:      5,
		ChurnPerRound: 4,
		Interval:      time.Minute,
	})
	hostile, clean := sim.Truth()

	reporters := map[string]*mutableReporter{
		"clean1": {sim.CleanReporter("clean1", 0.9)},
		"clean2": {sim.CleanReporter("clean2", 0.9)},
		"clean3": {sim.CleanReporter("clean3", 0.9)},
		"clean4": {sim.CleanReporter("clean4", 0.9)},
		// Poison 0.9 over a clean pool three times the initial hostile
		// population: heavy enough that churn growing the hostile side
		// cannot drift the poisoners' precision back over the quarantine
		// line within the scenario.
		"poison1": {sim.PoisonedReporter("poison1", 0.9, 0.9)},
		"poison2": {sim.PoisonedReporter("poison2", 0.9, 0.9)},
		"flap":    {sim.CleanReporter("flap", 0.9).WithFaults(simnet.Flapping(2, 3))},
		"dead":    {sim.CleanReporter("dead", 0.9).WithFaults(simnet.AlwaysDown())},
	}
	order := []string{"clean1", "clean2", "clean3", "clean4", "poison1", "poison2", "flap", "dead"}
	var sources []feedmesh.Source
	for _, name := range order {
		mr := reporters[name]
		sources = append(sources, feedmesh.SourceFunc(name, func(context.Context) (feedmesh.Batch, error) {
			set, asOf, err := mr.r.Report()
			if err != nil {
				return feedmesh.Batch{}, err
			}
			return feedmesh.Batch{Addrs: set, AsOf: asOf}, nil
		}))
	}

	cfg := feedmesh.DefaultConfig()
	cfg.Interval = time.Minute
	cfg.Now = sim.Now
	mesh, err := feedmesh.New(cfg, sources...)
	if err != nil {
		t.Fatal(err)
	}

	var lookupAddr string
	if serve {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := dnsbl.NewServer("mesh.example", &blocklist.Trie{}, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		mesh.OnSwap(srv.SetList)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConns(ctx, []net.PacketConn{conn}, dnsbl.ShardConfig{}) //nolint:errcheck // returns on close
		}()
		defer func() {
			cancel()
			<-done
			conn.Close()
		}()
		lookupAddr = conn.LocalAddr().String()
	}

	out := chaosOutcome{
		quarantinedAt: map[string]int{},
		readmittedAt:  map[string]int{},
	}
	probe := hostile.At(0)    // hostile from round 0: should be listed quickly
	cleanProbe := clean.At(0) // known clean: must never be listed
	cleanBits := clean.MaskedSet(feedmesh.Bits)

	for round := 1; round <= chaosRounds; round++ {
		if round == flipRound {
			// The flapping feed stabilizes and one poisoner turns honest:
			// both must earn their way back through probation.
			reporters["flap"].r = sim.CleanReporter("flap", 0.9)
			reporters["poison1"].r = sim.CleanReporter("poison1", 0.9)
		}
		mesh.Tick(context.Background())

		// The poisoned share of the served list stays bounded, every round.
		mset, frac := servedPoison(mesh, cleanBits)
		if frac > maxPoisonFrac {
			t.Fatalf("round %d: served list poison fraction %.3f exceeds bound %.3f",
				round, frac, maxPoisonFrac)
		}

		// Queries keep answering, bad rounds included.
		if serve {
			listed, _, err := dnsbl.Lookup(lookupAddr, "mesh.example", probe, 2*time.Second)
			if err != nil {
				t.Fatalf("round %d: lookup failed: %v", round, err)
			}
			if round >= 3 && !listed {
				t.Fatalf("round %d: round-0 hostile address not served", round)
			}
			if listed, _, err := dnsbl.Lookup(lookupAddr, "mesh.example", cleanProbe, 2*time.Second); err != nil {
				t.Fatalf("round %d: clean lookup failed: %v", round, err)
			} else if listed {
				t.Fatalf("round %d: known-clean address served as listed", round)
			}
		}

		st := mesh.Status()
		states := ""
		for _, f := range st.Feeds {
			if states != "" {
				states += " "
			}
			states += f.Name + "=" + f.State.String()
			if f.State != feedmesh.StateHealthy {
				if _, seen := out.quarantinedAt[f.Name]; !seen {
					out.quarantinedAt[f.Name] = round
				}
			} else if q, seen := out.quarantinedAt[f.Name]; seen && round > q {
				if _, re := out.readmittedAt[f.Name]; !re {
					out.readmittedAt[f.Name] = round
				}
			}
		}
		out.rounds = append(out.rounds, roundRecord{
			merged:   mset,
			healthy:  st.HealthyFeeds,
			degraded: st.Degraded,
			states:   states,
		})
		sim.Advance()
	}
	return out
}

func TestChaosMeshQuarantinesAndServes(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkChaosContract(t, seed) })
	}
}

// checkChaosContract runs the served scenario under seed and holds it
// to the quarantine and re-admission contract.
func checkChaosContract(t *testing.T, seed uint64) {
	out := runChaosScenario(t, seed, true)

	// Every bad feed is caught within one quality window of its badness
	// becoming observable (EWMA boundary: +1).
	window := feedmesh.QualityWindow + 1
	for _, bad := range []string{"poison1", "poison2", "flap", "dead"} {
		at, ok := out.quarantinedAt[bad]
		if !ok {
			t.Fatalf("%s was never quarantined", bad)
		}
		if at > window {
			t.Errorf("%s quarantined at round %d, want <= %d", bad, at, window)
		}
	}
	// Honest feeds are never quarantined.
	for _, good := range []string{"clean1", "clean2", "clean3", "clean4"} {
		if at, ok := out.quarantinedAt[good]; ok {
			t.Errorf("honest feed %s lost healthy state at round %d", good, at)
		}
	}
	// The feeds that turned clean at flipRound come back through
	// probation. The ex-poisoner's clean loads can only start at the
	// flip, so its floor is flip + ProbationLoads; the flapper's
	// probation may already be part-way through an up-phase when the
	// flip lands, so its floor is just "after the flip".
	for _, recovered := range []string{"flap", "poison1"} {
		if _, ok := out.readmittedAt[recovered]; !ok {
			t.Fatalf("%s never re-admitted after turning clean", recovered)
		}
	}
	// The flip round itself is poison1's first clean load.
	if at := out.readmittedAt["poison1"]; at < flipRound+feedmesh.ProbationLoads-1 {
		t.Errorf("poison1 re-admitted at round %d, before probation could complete", at)
	}
	if at := out.readmittedAt["flap"]; at <= flipRound {
		t.Errorf("flap re-admitted at round %d, before its schedule stabilized", at)
	}
	// The feeds that stayed bad stay out.
	for _, bad := range []string{"poison2", "dead"} {
		if at, ok := out.readmittedAt[bad]; ok {
			t.Errorf("%s re-admitted at round %d despite staying bad", bad, at)
		}
	}
	// The mesh never collapsed: the merged list is non-trivial from the
	// first rounds on.
	last := out.rounds[len(out.rounds)-1]
	if last.merged.Len() < 8 {
		t.Errorf("final merged list has only %d blocks", last.merged.Len())
	}
}

func TestChaosMeshDeterministic(t *testing.T) {
	a := runChaosScenario(t, chaosSeeds[0], false)
	b := runChaosScenario(t, chaosSeeds[0], false)
	if len(a.rounds) != len(b.rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(a.rounds), len(b.rounds))
	}
	for i := range a.rounds {
		ra, rb := a.rounds[i], b.rounds[i]
		if !ra.merged.Equal(rb.merged) {
			t.Fatalf("round %d: merged lists differ (%d vs %d blocks)", i+1, ra.merged.Len(), rb.merged.Len())
		}
		if ra.states != rb.states || ra.healthy != rb.healthy || ra.degraded != rb.degraded {
			t.Fatalf("round %d: feed states differ:\n  %s\n  %s", i+1, ra.states, rb.states)
		}
	}
	if fmt.Sprint(a.quarantinedAt) != fmt.Sprint(b.quarantinedAt) {
		t.Fatalf("quarantine schedules differ:\n  %v\n  %v", a.quarantinedAt, b.quarantinedAt)
	}
	if fmt.Sprint(a.readmittedAt) != fmt.Sprint(b.readmittedAt) {
		t.Fatalf("re-admission schedules differ:\n  %v\n  %v", a.readmittedAt, b.readmittedAt)
	}
}
