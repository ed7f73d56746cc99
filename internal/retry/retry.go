// Package retry provides context-aware retry with capped exponential
// backoff plus jitter, and a small circuit breaker. Together they are the
// degradation policy for the operational spine: a DNSBL lookup whose UDP
// packet was lost retries with backoff; a report feed that fails reload
// repeatedly trips the breaker so the daemon keeps serving its last-good
// blocklist instead of hammering (or dying on) a broken source.
//
// Jitter draws from a stats.RNG so chaos runs are reproducible: the same
// seed yields the same retry schedule.
package retry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"unclean/internal/obs"
	"unclean/internal/stats"
)

// Process-wide retry telemetry, shared with the /metrics exposition
// through the obs default registry.
var (
	mAttempts = obs.Default().Counter("unclean_retry_attempts_total",
		"Operation attempts made under a retry policy (first tries included).")
	mRetries = obs.Default().Counter("unclean_retry_retries_total",
		"Attempts beyond the first (i.e. actual retries).")
	mGiveups = obs.Default().Counter("unclean_retry_giveups_total",
		"Operations abandoned after exhausting their attempt budget.")
)

// Policy parameterizes Do. The zero value is usable: it means "one
// attempt, no waiting" (i.e. no retries).
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 are treated as 1.
	MaxAttempts int
	// BaseDelay is the wait after the first failure; each subsequent wait
	// doubles, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Zero means "no cap".
	MaxDelay time.Duration
	// Jitter is the fraction of each delay that is randomized: the actual
	// wait is delay * (1 - Jitter/2 + Jitter*u) for uniform u in [0,1).
	// Zero disables jitter; 1 spreads waits over [delay/2, delay*3/2).
	Jitter float64
	// RNG supplies the jitter stream. Nil falls back to a process-wide
	// seeded generator (still deterministic within one process run).
	RNG *stats.RNG
	// Sleep overrides the waiting primitive (tests inject a fake). Nil
	// uses a context-aware real sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// fallbackRNG backs policies without an explicit generator.
var (
	fallbackMu  sync.Mutex
	fallbackRNG = stats.NewRNG(0x9e3779b97f4a7c15)
)

// permanentError marks an error that must not be retried.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do stops immediately and returns it unwrapped.
// Use it for failures more attempts cannot fix (parse errors, validation).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs op until it succeeds, returns a permanent error, exhausts
// p.MaxAttempts, or ctx is done. The last error is returned, annotated
// with the attempt count when retries were exhausted.
func Do(ctx context.Context, p Policy, op func() error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	delay := p.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if err = ctx.Err(); err != nil {
			return err
		}
		mAttempts.Inc()
		if attempt > 1 {
			mRetries.Inc()
		}
		err = op()
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if attempt >= attempts {
			mGiveups.Inc()
			if attempts > 1 {
				return fmt.Errorf("retry: %d attempts: %w", attempts, err)
			}
			return err
		}
		if delay > 0 {
			if serr := sleep(ctx, jittered(&p, delay)); serr != nil {
				return serr
			}
			delay *= 2
			if p.MaxDelay > 0 && delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
	}
}

// jittered applies the policy's jitter fraction to d.
func jittered(p *Policy, d time.Duration) time.Duration {
	if p.Jitter <= 0 || d <= 0 {
		return d
	}
	var u float64
	if p.RNG != nil {
		u = p.RNG.Float64()
	} else {
		fallbackMu.Lock()
		u = fallbackRNG.Float64()
		fallbackMu.Unlock()
	}
	f := 1 - p.Jitter/2 + p.Jitter*u
	if f <= 0 {
		return 0
	}
	return time.Duration(float64(d) * f)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
