//go:build !race

// The race detector makes sync.Pool drop a random quarter of what it is
// given, so the reuse this file asserts holds only without it.

package ipset

import (
	"runtime"
	"runtime/debug"
	"testing"

	"unclean/internal/stats"
)

// TestDrawKernelsReusePopulation holds the draw kernels to their pooled
// population: with the collector off, so the pool keeps what it is
// given, a second SampleBlocks or SampleIntersections call allocates
// less than one copy of the population, 4 bytes an address.
func TestDrawKernelsReusePopulation(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := stats.NewRNG(5)
	control, target := randomSet(rng, 200000), randomSet(rng, 50000)
	limit := uint64(4 * control.Len())
	for _, k := range []struct {
		name string
		call func()
	}{
		{"SampleBlocks", func() { control.SampleBlocks(10, 1000, 16, 32, stats.NewRNG(1)) }},
		{"SampleIntersections", func() { control.SampleIntersections(target, 10, 1000, 16, 32, stats.NewRNG(1)) }},
	} {
		k.call()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		k.call()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: a second call allocated %d bytes, want under %d (4 bytes an address of %d)", k.name, got, limit, control.Len())
		}
	}
}
