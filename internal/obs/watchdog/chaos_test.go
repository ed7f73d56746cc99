package watchdog_test

// The watchdog riding the PR-7 chaos scenario: eight feeds — four
// honest, two poisoned, one flapping, one dead — drive the reputation
// mesh, the mesh's registry series drive the watchdog, and the watchdog's
// trigger captures a diagnostics bundle. The assertions are the
// autopilot's contract: the quarantine rule fires when the mesh starts
// ejecting feeds, never more than once per cooldown window however many
// feeds fall in that window, and the captured bundle names the
// offending feeds without any live daemon to ask.

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"unclean/internal/feedmesh"
	"unclean/internal/obs"
	"unclean/internal/obs/bundle"
	"unclean/internal/obs/flight"
	"unclean/internal/obs/watchdog"
	"unclean/internal/simnet"
)

func TestChaosQuarantineTriggersWatchdogOncePerCooldown(t *testing.T) {
	const (
		rounds   = 26
		cooldown = 5 * time.Minute
	)
	sim := simnet.NewFeedSim(simnet.FeedSimConfig{
		Seed:          42,
		Rounds:        rounds + 2,
		HostileBlocks: 12,
		CleanBlocks:   36,
		PerBlock:      5,
		ChurnPerRound: 4,
		Interval:      time.Minute,
	})

	reporters := map[string]*simnet.Reporter{
		"clean1":  sim.CleanReporter("clean1", 0.9),
		"clean2":  sim.CleanReporter("clean2", 0.9),
		"clean3":  sim.CleanReporter("clean3", 0.9),
		"clean4":  sim.CleanReporter("clean4", 0.9),
		"poison1": sim.PoisonedReporter("poison1", 0.9, 0.9),
		"poison2": sim.PoisonedReporter("poison2", 0.9, 0.9),
		"flap":    sim.CleanReporter("flap", 0.9).WithFaults(simnet.Flapping(2, 3)),
		"dead":    sim.CleanReporter("dead", 0.9).WithFaults(simnet.AlwaysDown()),
	}
	var sources []feedmesh.Source
	for _, name := range []string{"clean1", "clean2", "clean3", "clean4", "poison1", "poison2", "flap", "dead"} {
		r := reporters[name]
		sources = append(sources, feedmesh.SourceFunc(name, func(context.Context) (feedmesh.Batch, error) {
			set, asOf, err := r.Report()
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

	// The watchdog shares the scenario's clock and reads the mesh's
	// registry, one of those dnsbld hands it.
	var fired []watchdog.Trigger
	wd := watchdog.New(watchdog.Config{
		Now:        sim.Now,
		Registries: []*obs.Registry{mesh.Metrics()},
		Registry:   obs.NewRegistry(),
		Flight:     flight.New(64),
		OnTrigger: func(tr watchdog.Trigger) {
			fired = append(fired, tr)
		},
	})
	rule, err := watchdog.ParseRule(
		"mesh-quarantine: unclean_feedmesh_quarantines_total > 0 over=1 cooldown=" + cooldown.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.AddRule(rule); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= rounds; round++ {
		mesh.Tick(context.Background())
		wd.Tick()
		sim.Advance()
	}

	if len(fired) == 0 {
		t.Fatal("mesh quarantined feeds but the watchdog never fired")
	}
	// Exactly once per cooldown window: four bad feeds fall inside the
	// first window, one fire covers them all; any later fire is at least
	// a full cooldown after its predecessor.
	for i := 1; i < len(fired); i++ {
		if gap := fired[i].At.Sub(fired[i-1].At); gap < cooldown {
			t.Fatalf("triggers %d and %d only %s apart, want >= the %s cooldown",
				i-1, i, gap, cooldown)
		}
	}
	if fired[0].Rule != "mesh-quarantine" {
		t.Fatalf("first trigger = %q, want mesh-quarantine", fired[0].Rule)
	}

	// The trigger's capture path: bundle the mesh state and verify the
	// offenders are named, offline.
	dir := t.TempDir()
	path, err := bundle.CaptureToDir(dir, bundle.CaptureConfig{
		Reason:     "watchdog:" + fired[0].Rule,
		Evidence:   fired[0].Evidence,
		Trigger:    &fired[0],
		Registries: []*obs.Registry{obs.NewRegistry()},
		MeshStatus: mesh.Status,
		Now:        sim.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var st feedmesh.Status
	if err := json.Unmarshal(b.File(bundle.MeshName), &st); err != nil {
		t.Fatalf("mesh.json: %v", err)
	}
	unhealthy := map[string]bool{}
	for _, f := range st.Feeds {
		if f.State != feedmesh.StateHealthy {
			unhealthy[f.Name] = true
		}
	}
	// poison2 and dead stay bad to the end of the scenario; the bundle
	// must name them.
	for _, want := range []string{"poison2", "dead"} {
		if !unhealthy[want] {
			t.Errorf("bundle's mesh.json does not name offending feed %s (unhealthy: %v)",
				want, unhealthy)
		}
	}
	if b.Manifest.Reason != "watchdog:mesh-quarantine" {
		t.Fatalf("bundle reason %q", b.Manifest.Reason)
	}
	if b.Manifest.Evidence == "" {
		t.Fatal("bundle carries no trigger evidence")
	}
}
