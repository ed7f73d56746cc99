package retry

import (
	"errors"
	"sync"
	"time"

	"unclean/internal/obs"
	"unclean/internal/obs/flight"
)

// Breaker telemetry: trips and closes are rare, load-bearing events, so
// they are both counted (obs default registry) and logged structurally.
var (
	mTrips = obs.Default().Counter("unclean_breaker_trips_total",
		"Circuit-breaker openings: the failure that reaches the threshold, and each later failure before a success, which re-opens the circuit for another cooldown.")
	mCloses = obs.Default().Counter("unclean_breaker_closes_total",
		"Circuit-breaker closings: the first success recorded after the circuit opened.")
	breakerLog = obs.Logger("breaker")
)

// ErrOpen is the error a caller reports for a call that Breaker.Allow
// refused: the guarded operation has failed enough consecutive times that
// further tries are refused until the cooldown elapses.
var ErrOpen = errors.New("retry: circuit open")

// Breaker is a small consecutive-failure circuit breaker. After
// Threshold consecutive failures it opens for Cooldown, and Allow refuses
// every call. Once the cooldown has elapsed Allow admits every caller,
// not one probe, until the next Record decides: a success closes the
// circuit, a failure re-opens it for another cooldown.
//
// The zero value is not usable; construct with NewBreaker. All methods
// are safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	openUntil time.Time
	now       func() time.Time
}

// NewBreaker builds a breaker that opens after threshold consecutive
// failures and stays open for cooldown. threshold below 1 is treated
// as 1.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// SetClock injects a clock, so tests can march time deterministically.
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// Allow reports whether a call may proceed: false while the circuit is
// open and its cooldown has not elapsed, true otherwise. After the
// cooldown it admits every caller until the next Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() || b.now().After(b.openUntil) {
		return true
	}
	return false
}

// Record feeds an operation outcome to the breaker: nil resets the
// consecutive-failure count and closes the circuit; an error counts
// toward (or re-arms) opening it. State changes are counted and logged
// as structured events — a breaker transition is exactly the moment an
// operator wants on a timeline.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wasOpen := !b.openUntil.IsZero()
	if err == nil {
		b.failures = 0
		b.openUntil = time.Time{}
		if wasOpen {
			mCloses.Inc()
			breakerLog.Info("circuit closed")
			flight.Default().Record(flight.Event{
				Kind:    flight.KindBreaker,
				Flags:   flight.FlagRecovered,
				Verdict: "closed",
			})
		}
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.openUntil = b.now().Add(b.cooldown)
		// Every failure from the threshold on opens the circuit for a
		// fresh cooldown, so each counts: the closed→open edge and every
		// later failure before a success, whether it comes after the
		// cooldown, when Allow admits every caller, or from a call
		// admitted before the circuit opened.
		mTrips.Inc()
		breakerLog.Warn("circuit opened",
			"failures", b.failures, "cooldown", b.cooldown)
		flight.Default().Record(flight.Event{
			Kind:    flight.KindBreaker,
			Flags:   flight.FlagErr,
			Verdict: "open",
			Detail:  err.Error(),
			Value:   int64(b.failures),
		})
	}
}

// Open reports whether the circuit is currently refusing calls.
func (b *Breaker) Open() bool { return !b.Allow() }

// Failures returns the current consecutive-failure count — the distance
// to (or past) the trip threshold. Status surfaces render it so an
// operator can see a feed that is failing but has not tripped yet.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures
}
