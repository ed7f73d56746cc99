package obs

import (
	"runtime/metrics"
)

// Runtime gauges. The watchdog's slope rules ("goroutines growing",
// "heap approaching its goal") and a Prometheus scrape must agree on
// what the runtime looks like, so both read the same gauges: an
// OnScrape hook samples the runtime/metrics interface whenever the
// exposition is read — by a scrape or by a watchdog tick — and
// publishes the results into ordinary registry gauges. Sampling is a
// handful of atomic reads inside the runtime (a few microseconds);
// there is no background goroutine.

// The runtime/metrics samples runtimeStats reads, in sample-slice order.
const (
	sampleGoroutines = iota
	sampleGCPauses
	sampleHeapLive
	sampleHeapGoal
	sampleGomaxprocs
	numRuntimeSamples
)

// runtimeStats publishes runtime/metrics readings (plus the kernel's
// RSS) as registry gauges; update is safe for concurrent use.
type runtimeStats struct {
	gGoroutines *Gauge
	gGCPauseP99 *Gauge
	gHeapLive   *Gauge
	gHeapGoal   *Gauge
	gGomaxprocs *Gauge
	gRSS        *Gauge
}

// RegisterRuntimeGauges registers the unclean_runtime_* gauges in r and
// hooks their refresh into r's scrape path, so every read of the
// exposition sees current values. Later calls on the same registry do
// nothing, so a process that starts the daemon many times still samples
// the runtime once per read.
func RegisterRuntimeGauges(r *Registry) {
	if r.runtime.Swap(true) {
		return
	}
	s := &runtimeStats{
		gGoroutines: r.Gauge("unclean_runtime_goroutines", "Live goroutines."),
		gGCPauseP99: r.Gauge("unclean_runtime_gc_pause_p99_ns", "p99 stop-the-world GC pause (nanoseconds, process lifetime)."),
		gHeapLive:   r.Gauge("unclean_runtime_heap_live_bytes", "Bytes of live heap objects (runtime/metrics heap/objects)."),
		gHeapGoal:   r.Gauge("unclean_runtime_heap_goal_bytes", "The GC's next heap size goal."),
		gGomaxprocs: r.Gauge("unclean_runtime_gomaxprocs", "GOMAXPROCS."),
		gRSS:        r.Gauge("unclean_runtime_rss_bytes", "Kernel resident set size (VmRSS; 0 where /proc is unavailable)."),
	}
	s.update()
	r.OnScrape(s.update)
}

// newRuntimeSamples builds the sample slice update reads. A fresh slice
// per update keeps runtimeStats lock-free; the slice is five entries.
func newRuntimeSamples() []metrics.Sample {
	s := make([]metrics.Sample, numRuntimeSamples)
	s[sampleGoroutines].Name = "/sched/goroutines:goroutines"
	s[sampleGCPauses].Name = "/gc/pauses:seconds"
	s[sampleHeapLive].Name = "/memory/classes/heap/objects:bytes"
	s[sampleHeapGoal].Name = "/gc/heap/goal:bytes"
	s[sampleGomaxprocs].Name = "/sched/gomaxprocs:threads"
	return s
}

// update samples the runtime and refreshes the gauges. Safe to call
// from any goroutine at any rate; the registry sees whichever write
// lands last.
func (s *runtimeStats) update() {
	samples := newRuntimeSamples()
	metrics.Read(samples)
	s.gGoroutines.Set(sampleInt(&samples[sampleGoroutines]))
	s.gHeapLive.Set(sampleInt(&samples[sampleHeapLive]))
	s.gHeapGoal.Set(sampleInt(&samples[sampleHeapGoal]))
	s.gGomaxprocs.Set(sampleInt(&samples[sampleGomaxprocs]))
	if h := samples[sampleGCPauses].Value; h.Kind() == metrics.KindFloat64Histogram {
		s.gGCPauseP99.Set(int64(histQuantile(h.Float64Histogram(), 0.99) * 1e9))
	}
	if pm, ok := ReadProcMem(); ok {
		s.gRSS.Set(pm.RSS)
	}
}

// sampleInt extracts an integer reading from a runtime/metrics sample,
// 0 for kinds it does not understand (a metric renamed in a future
// runtime degrades to zero, never a panic).
func sampleInt(s *metrics.Sample) int64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return int64(s.Value.Uint64())
	}
	return 0
}

// histQuantile computes the q-quantile of a runtime/metrics histogram
// (bucket lower edge of the matched bucket — pessimistic by at most one
// bucket, and the runtime's pause buckets are fine-grained).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	total := uint64(0)
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			// Buckets[i] is the lower edge of Counts[i]; the first edge
			// can be -Inf.
			edge := h.Buckets[i]
			if edge < 0 {
				return 0
			}
			return edge
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
