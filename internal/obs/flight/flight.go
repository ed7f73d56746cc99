// Package flight is the repository's flight recorder: a fixed-size,
// allocation-light ring buffer of structured wide events — one per
// DNSBL query, feed load, checkpoint write/recovery, breaker
// transition, and experiment stage. Metrics (package obs) answer "how
// many"; the flight recorder answers "which request" and "what happened
// in the last five minutes" — the canonical-log-line discipline of
// production DNSBL operators, kept entirely in memory until someone
// asks.
//
// The writer path is lock-free and costs exactly one small allocation
// per event: Record claims a slot with one atomic add and publishes a
// freshly allocated Event through an atomic pointer, so writers never
// block each other or readers, and readers always see fully formed
// events (never a torn half-write). A second, smaller "kept" ring
// receives every event flagged as an error, panic, shed, or slow
// outlier, so a flood of healthy traffic cannot evict the interesting
// failures before an operator looks.
//
// Snapshots serve /debug/events (JSON, filterable by kind and minimum
// latency); EncodeDump renders both rings as the flight.json member of
// a diagnostics bundle, which is where a crash leaves them (package
// bundle's crash hook).
package flight

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"unclean/internal/netaddr"
)

// Kind classifies a wide event by the subsystem that emitted it.
type Kind uint8

// Event kinds.
const (
	KindQuery      Kind = iota // one DNSBL query (or shed packet)
	KindFeedLoad               // one report/phish feed ingestion
	KindCheckpoint             // one checkpoint write, load, or recovery
	KindBreaker                // a circuit-breaker transition
	KindExperiment             // one experiment stage
	KindServer                 // daemon lifecycle: start, reload, stop, crash
	KindMesh                   // a feed-mesh merge round or quarantine transition
	KindAnalytics              // an analytics scoreboard sweep against a list swap
	KindWatchdog               // an anomaly-watchdog rule trigger or suppression
	numKinds
)

var kindNames = [numKinds]string{
	"query", "feed_load", "checkpoint", "breaker", "experiment", "server", "mesh",
	"analytics", "watchdog",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind resolves a kind name as used in /debug/events?kind=.
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Flags are boolean facets of an event, packed so the hot path writes
// one word instead of five bools.
type Flags uint16

// Event flags.
const (
	FlagErr       Flags = 1 << iota // the operation failed
	FlagShed                        // packet dropped by the overload valve
	FlagPanic                       // a recovered (or fatal) panic
	FlagHit                         // query matched a listing
	FlagSlow                        // latency reached DefaultSlowThreshold
	FlagRecovered                   // state was recovered from a fallback generation
)

var flagNames = []struct {
	f Flags
	n string
}{
	{FlagErr, "err"}, {FlagShed, "shed"}, {FlagPanic, "panic"},
	{FlagHit, "hit"}, {FlagSlow, "slow"}, {FlagRecovered, "recovered"},
}

// Names renders the set flags as strings (nil when none are set).
func (f Flags) Names() []string {
	if f == 0 {
		return nil
	}
	out := make([]string, 0, bits.OnesCount16(uint16(f)))
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			out = append(out, fn.n)
		}
	}
	return out
}

// Event is one wide event: everything worth knowing about a single
// request or pipeline step, in one flat record. All fields are plain
// values — recording an event copies it once and never chases pointers,
// so the struct is safe to build on the stack of a hot path. String
// fields should be constants or long-lived strings (a zone name, a feed
// path); formatting a fresh string per event would add allocations the
// write-path budget does not include.
type Event struct {
	// Seq is the recorder-assigned sequence number (1-based, dense).
	Seq uint64
	// Unix is the event time in nanoseconds since the epoch; Record
	// stamps it when zero.
	Unix int64
	// Kind classifies the emitting subsystem.
	Kind Kind
	// Flags are the event's boolean facets.
	Flags Flags
	// Latency is how long the operation took (0 when not timed).
	Latency time.Duration
	// Client is the requesting peer (queries), 0 when absent.
	Client netaddr.Addr
	// Addr is the subject address (the IP a query asked about), 0 when
	// absent.
	Addr netaddr.Addr
	// Name identifies the object: zone, feed directory, checkpoint
	// path, experiment id.
	Name string
	// Verdict is the one-word outcome: "hit", "miss", "shed", "ok",
	// "error", ...
	Verdict string
	// Detail carries optional free-form context (an error message).
	Detail string
	// Value is a generic magnitude: reports loaded, rules compiled.
	Value int64
}

// Recorder is the fixed-size event ring plus its kept-ring companion.
// All methods are safe for concurrent use.
type Recorder struct {
	seq     atomic.Uint64
	keptSeq atomic.Uint64

	mask     uint64
	keptMask uint64
	ring     []atomic.Pointer[Event]
	kept     []atomic.Pointer[Event]

	now func() time.Time // injectable for deterministic tests
}

// DefaultSize is the main ring's default capacity (events).
const DefaultSize = 4096

// DefaultSlowThreshold marks events slower than this as outliers: they
// are flagged slow and copied to the kept ring.
const DefaultSlowThreshold = 50 * time.Millisecond

// New builds a recorder holding at least size events (rounded up to a
// power of two, minimum 64). The kept ring is a quarter of the main
// ring (minimum 64).
func New(size int) *Recorder {
	if size < 64 {
		size = 64
	}
	n := 1 << bits.Len(uint(size-1)) // next power of two
	k := n / 4
	if k < 64 {
		k = 64
	}
	return &Recorder{
		mask:     uint64(n - 1),
		keptMask: uint64(k - 1),
		ring:     make([]atomic.Pointer[Event], n),
		kept:     make([]atomic.Pointer[Event], k),
		now:      time.Now,
	}
}

// defaultRecorder backs Default(): the process-wide ring every
// instrumented package records into unless handed its own.
var defaultRecorder = New(DefaultSize)

// Default returns the process-wide recorder.
func Default() *Recorder { return defaultRecorder }

// Record appends one event to the ring: one atomic claim, one Event
// allocation, one pointer publish. Events flagged err/shed/panic — or
// at least DefaultSlowThreshold slow — are also published to the kept ring
// (same allocation, second pointer store). Record never blocks and is
// safe from any goroutine, including inside a recover().
func (r *Recorder) Record(ev Event) {
	r.RecordOwned(&ev) // the one allocation: the copy escapes into the ring
}

// RecordOwned publishes a caller-allocated event, transferring ownership
// to the recorder: the caller must not read or write ev afterward —
// readers may already hold it. It is the zero-copy variant of Record for
// hot paths that build the event in place (still one allocation per
// event, the caller's, but no 96-byte copies on the way in).
func (r *Recorder) RecordOwned(ev *Event) {
	if ev.Unix == 0 {
		ev.Unix = r.now().UnixNano()
	}
	if ev.Latency >= DefaultSlowThreshold {
		ev.Flags |= FlagSlow
	}
	ev.Seq = r.seq.Add(1)
	r.ring[(ev.Seq-1)&r.mask].Store(ev)
	if ev.Flags&(FlagErr|FlagShed|FlagPanic|FlagSlow) != 0 {
		k := r.keptSeq.Add(1)
		r.kept[(k-1)&r.keptMask].Store(ev)
	}
}

// Len returns how many events have ever been recorded (not the ring
// occupancy).
func (r *Recorder) Len() uint64 { return r.seq.Load() }

// arenaSlab is how many events an Arena allocates at a time.
const arenaSlab = 256

// Arena hands out zeroed events from slab allocations, amortizing the
// per-event heap allocation to one slab per arenaSlab events. Events
// are never reused — a published event stays valid for readers forever —
// so the only cost is the bump pointer. An Arena is NOT safe for
// concurrent use: give each worker goroutine its own and pair it with
// RecordOwned.
type Arena struct{ slab []Event }

// New returns a zeroed event for the caller to fill and RecordOwned.
func (a *Arena) New() *Event {
	if len(a.slab) == 0 {
		a.slab = make([]Event, arenaSlab)
	}
	ev := &a.slab[0]
	a.slab = a.slab[1:]
	return ev
}

// Filter selects events out of a snapshot. The zero value matches
// everything.
type Filter struct {
	// Kinds restricts to the listed kinds (nil matches all).
	Kinds []Kind
	// MinLatency drops events faster than this.
	MinLatency time.Duration
	// Flags, when nonzero, requires at least one of these flags.
	Flags Flags
	// Max caps the result length, keeping the newest (0 = no cap).
	Max int
	// Kept reads the kept ring (errors and outliers) instead of the
	// main ring.
	Kept bool
}

func (f *Filter) match(ev *Event) bool {
	if ev.Latency < f.MinLatency {
		return false
	}
	if f.Flags != 0 && ev.Flags&f.Flags == 0 {
		return false
	}
	if len(f.Kinds) == 0 {
		return true
	}
	for _, k := range f.Kinds {
		if ev.Kind == k {
			return true
		}
	}
	return false
}

// Snapshot copies out the events matching f, oldest first. It is
// wait-free with respect to writers: events recorded while the snapshot
// runs may or may not appear, but every returned event is complete.
func (r *Recorder) Snapshot(f Filter) []Event {
	ring, mask, hi := r.ring, r.mask, r.seq.Load()
	if f.Kept {
		ring, mask, hi = r.kept, r.keptMask, r.keptSeq.Load()
	}
	n := uint64(len(ring))
	lo := uint64(0)
	if hi > n {
		lo = hi - n
	}
	out := make([]Event, 0, hi-lo)
	for s := lo; s < hi; s++ {
		p := ring[s&mask].Load()
		if p == nil || !f.match(p) {
			continue
		}
		// Ring-lap check (main ring only): a writer racing the snapshot
		// may have overwritten this slot with a newer lap's event; the
		// kept ring interleaves an independent sequence, so it skips
		// the check.
		if !f.Kept && p.Seq != s+1 {
			continue
		}
		out = append(out, *p)
	}
	if f.Max > 0 && len(out) > f.Max {
		out = out[len(out)-f.Max:]
	}
	return out
}

// Clock injects a time source (tests); nil restores time.Now.
func (r *Recorder) Clock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	r.now = now
}

// String renders a compact one-line form of the event, the shape the
// uncleanctl status screen prints.
func (ev Event) String() string {
	t := time.Unix(0, ev.Unix).UTC().Format("15:04:05.000")
	s := fmt.Sprintf("%s %-10s %-9s", t, ev.Kind, ev.Verdict)
	if ev.Name != "" {
		s += " " + ev.Name
	}
	if ev.Addr != 0 {
		s += " addr=" + ev.Addr.String()
	}
	if ev.Client != 0 {
		s += " client=" + ev.Client.String()
	}
	if ev.Latency > 0 {
		s += " lat=" + ev.Latency.String()
	}
	if ev.Value != 0 {
		s += fmt.Sprintf(" value=%d", ev.Value)
	}
	if fl := ev.Flags.Names(); fl != nil {
		s += fmt.Sprintf(" flags=%v", fl)
	}
	if ev.Detail != "" {
		s += " detail=" + ev.Detail
	}
	return s
}
