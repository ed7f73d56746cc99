package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"testing"
	"time"

	"unclean/internal/obs"
)

// newTestProfiler builds a profiler with CPU bursts disabled (no
// sleeping in unit tests) and a deterministic clock.
func newTestProfiler() *Profiler {
	p := New(Config{
		Interval:    time.Second,
		CPUDuration: -1, // disabled: snapshots only
		Registry:    obs.NewRegistry(),
	})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	n := 0
	p.Clock(func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Second)
	})
	return p
}

func TestRingBoundsAndDeterministicNames(t *testing.T) {
	p := newTestProfiler()
	for i := 0; i < keepPerKind+1; i++ {
		p.CollectOnce(context.Background())
	}
	snap := p.Snapshot()
	// keepPerKind+1 cycles × (heap, goroutine), ring keeps keepPerKind.
	byKind := map[string][]Profile{}
	for _, pr := range snap {
		byKind[pr.Kind] = append(byKind[pr.Kind], pr)
	}
	for _, kind := range []string{KindHeap, KindGoroutine} {
		ring := byKind[kind]
		if len(ring) != keepPerKind {
			t.Fatalf("%s: ring holds %d profiles, want %d", kind, len(ring), keepPerKind)
		}
		// Eviction keeps the newest: cycle 1's profile is gone.
		for i, pr := range ring {
			if want := uint64(i + 2); pr.Seq != want {
				t.Fatalf("%s: ring[%d] seq %d, want %d", kind, i, pr.Seq, want)
			}
		}
	}
	// Only the two snapshot kinds: no stray kinds.
	if len(byKind) != 2 {
		t.Fatalf("collected kinds %v, want heap+goroutine only", keys(byKind))
	}
	// Deterministic, sortable names.
	if got := byKind[KindHeap][0].Name(); got != "heap-000002.pprof" {
		t.Fatalf("profile name %q, want heap-000002.pprof", got)
	}
	if p.gLastUnix.Value() == 0 {
		t.Fatal("unclean_prof_last_collection_unix still zero after collecting")
	}
}

func TestProfilesAreParseableGzip(t *testing.T) {
	p := newTestProfiler()
	p.CollectOnce(context.Background())
	snap := p.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no profiles collected")
	}
	for _, pr := range snap {
		gz, err := gzip.NewReader(bytes.NewReader(pr.Data))
		if err != nil {
			t.Fatalf("%s: not a gzip stream: %v", pr.Name(), err)
		}
		raw, err := io.ReadAll(gz)
		if err != nil {
			t.Fatalf("%s: gzip body: %v", pr.Name(), err)
		}
		if len(raw) == 0 {
			t.Fatalf("%s: empty profile", pr.Name())
		}
	}
}

func TestCPUBurstCollects(t *testing.T) {
	p := New(Config{
		Interval:    time.Second,
		CPUDuration: 50 * time.Millisecond,
		Registry:    obs.NewRegistry(),
	})
	p.CollectOnce(context.Background())
	var cpu *Profile
	for _, pr := range p.Snapshot() {
		if pr.Kind == KindCPU {
			pr := pr
			cpu = &pr
		}
	}
	if cpu == nil {
		t.Fatal("no CPU profile collected")
	}
	if cpu.Duration < 50*time.Millisecond {
		t.Fatalf("CPU window %s, want >= 50ms", cpu.Duration)
	}
	if len(cpu.Data) == 0 {
		t.Fatal("empty CPU profile")
	}
}

func TestCPUDutyCycleClamp(t *testing.T) {
	cfg := Config{Interval: 10 * time.Second, CPUDuration: 5 * time.Second}.withDefaults()
	if cfg.CPUDuration != time.Second {
		t.Fatalf("CPU duration clamped to %s, want Interval/10 = 1s", cfg.CPUDuration)
	}
	// Zero means the 2s default, which the 1m default interval admits.
	cfg = Config{}.withDefaults()
	if cfg.CPUDuration != 2*time.Second || cfg.Interval != time.Minute {
		t.Fatalf("defaults: interval %s cpu %s, want 1m / 2s", cfg.Interval, cfg.CPUDuration)
	}
}

func keys(m map[string][]Profile) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
