//go:build chaos_long

package feedmesh_test

// Long-haul chaos: every adversarial reporter type the simulator offers,
// sixteen feeds, eighty rounds, with a live DNSBL server answering
// throughout, at each of several seeds. The mesh scores the feeds as
// dnsbld does; the generator's ground truth only measures the served
// list. Build-tagged chaos_long so the suite stays fast by default; CI
// runs it under -race in a dedicated job.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/dnsbl"
	"unclean/internal/feedmesh"
	"unclean/internal/simnet"
)

func TestChaosLongAllAdversaries(t *testing.T) {
	for _, seed := range []uint64{20061014, 1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { chaosLongAllAdversaries(t, seed) })
	}
}

func chaosLongAllAdversaries(t *testing.T, seed uint64) {
	const (
		rounds = 80
		flip   = 40
	)
	sim := simnet.NewFeedSim(simnet.FeedSimConfig{
		Seed:          seed,
		Rounds:        rounds + 2,
		HostileBlocks: 16,
		CleanBlocks:   48,
		PerBlock:      5,
		ChurnPerRound: 3,
		Interval:      time.Minute,
	})
	hostile, clean := sim.Truth()

	reporters := map[string]*mutableReporter{
		"clean1": {sim.CleanReporter("clean1", 0.9)},
		"clean2": {sim.CleanReporter("clean2", 0.9)},
		"clean3": {sim.CleanReporter("clean3", 0.85)},
		"clean4": {sim.CleanReporter("clean4", 0.85)},
		"clean5": {sim.CleanReporter("clean5", 0.8)},
		"clean6": {sim.CleanReporter("clean6", 0.8)},
		// Lag of twice MaxLag: penalized to half weight, never quarantined.
		"lagged": {sim.LaggedReporter("lagged", 0.9, 8)},
		// Frozen batch, lying about freshness: caught by the dup penalty.
		"dup": {sim.DuplicatedReporter("dup", 0.9)},
		// Lists only known-clean space: the pure adversary.
		"conflict": {sim.ConflictingReporter("conflict", 0.8)},
		"poison1":  {sim.PoisonedReporter("poison1", 0.9, 0.9)},
		"poison2":  {sim.PoisonedReporter("poison2", 0.9, 0.9)},
		"poison3":  {sim.PoisonedReporter("poison3", 0.85, 0.9)},
		"flap1":    {sim.CleanReporter("flap1", 0.9).WithFaults(simnet.Flapping(2, 3))},
		"flap2":    {sim.CleanReporter("flap2", 0.9).WithFaults(simnet.Flapping(1, 4))},
		"dead1":    {sim.CleanReporter("dead1", 0.9).WithFaults(simnet.AlwaysDown())},
		"dead2":    {sim.CleanReporter("dead2", 0.9).WithFaults(simnet.AlwaysDown())},
	}
	order := []string{
		"clean1", "clean2", "clean3", "clean4", "clean5", "clean6",
		"lagged", "dup", "conflict",
		"poison1", "poison2", "poison3",
		"flap1", "flap2", "dead1", "dead2",
	}
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
	addr := conn.LocalAddr().String()

	probe := hostile.At(0)
	cleanProbe := clean.At(0)
	cleanBits := clean.MaskedSet(feedmesh.Bits)
	for round := 1; round <= rounds; round++ {
		if round == flip {
			reporters["poison1"].r = sim.CleanReporter("poison1", 0.9)
			reporters["dead1"].r = sim.CleanReporter("dead1", 0.9)
		}
		mesh.Tick(context.Background())
		if _, frac := servedPoison(mesh, cleanBits); frac > maxPoisonFrac {
			t.Fatalf("round %d: served list poison fraction %.3f over bound %.3f", round, frac, maxPoisonFrac)
		}
		listed, _, err := dnsbl.Lookup(addr, "mesh.example", probe, 2*time.Second)
		if err != nil {
			t.Fatalf("round %d: lookup: %v", round, err)
		}
		if round >= 3 && !listed {
			t.Fatalf("round %d: hostile probe not listed", round)
		}
		if listed, _, err := dnsbl.Lookup(addr, "mesh.example", cleanProbe, 2*time.Second); err != nil {
			t.Fatalf("round %d: clean lookup: %v", round, err)
		} else if listed {
			t.Fatalf("round %d: known-clean address listed", round)
		}
		sim.Advance()
	}

	st := mesh.Status()
	byName := map[string]feedmesh.FeedStatus{}
	for _, f := range st.Feeds {
		byName[f.Name] = f
	}
	for _, good := range []string{"clean1", "clean2", "clean3", "clean4", "clean5", "clean6", "lagged", "dup"} {
		if s := byName[good].State; s != feedmesh.StateHealthy {
			t.Errorf("%s final state = %v, want healthy", good, s)
		}
	}
	for _, bad := range []string{"conflict", "poison2", "poison3", "dead2"} {
		if s := byName[bad].State; s == feedmesh.StateHealthy {
			t.Errorf("%s final state = healthy, want quarantined/probation", bad)
		}
	}
	for _, recovered := range []string{"poison1", "dead1"} {
		if s := byName[recovered].State; s != feedmesh.StateHealthy {
			t.Errorf("%s final state = %v, want re-admitted healthy", recovered, s)
		}
	}
	// The lagged feed pays a freshness penalty but keeps its seat; the
	// frozen feed pays the duplication penalty.
	if w := byName["lagged"].Weight; w > 0.8 || w < 0.2 {
		t.Errorf("lagged feed weight %.3f, want a visible freshness penalty", w)
	}
	if d := byName["dup"].DupRatio; d < 0.999 {
		t.Errorf("frozen feed dup ratio %.3f, want ~1", d)
	}
	if !st.Degraded && st.HealthyFeeds < 8 {
		t.Errorf("final healthy=%d without degradation flag", st.HealthyFeeds)
	}
}
