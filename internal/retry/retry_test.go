package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"unclean/internal/stats"
)

// fakeSleep records requested waits and never actually sleeps.
func fakeSleep(log *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*log = append(*log, d)
		return ctx.Err()
	}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	var waits []time.Duration
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond,
		Sleep: fakeSleep(&waits)}
	calls := 0
	err := Do(context.Background(), p, func() error {
		calls++
		if calls < 4 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	// No jitter: the schedule is the pure capped exponential.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(waits) != len(want) {
		t.Fatalf("waits = %v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Fatalf("waits = %v, want %v", waits, want)
		}
	}
}

func TestDoCapsDelay(t *testing.T) {
	var waits []time.Duration
	p := Policy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond,
		Sleep: fakeSleep(&waits)}
	boom := errors.New("always")
	err := Do(context.Background(), p, func() error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	for _, d := range waits[2:] {
		if d != 25*time.Millisecond {
			t.Fatalf("delay %v exceeds cap", d)
		}
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var waits []time.Duration
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Sleep: fakeSleep(&waits)}
	calls := 0
	err := Do(context.Background(), p, func() error { calls++; return errors.New("nope") })
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want error after 3 calls", err, calls)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Sleep: fakeSleep(new([]time.Duration))}
	calls := 0
	base := errors.New("parse error")
	err := Do(context.Background(), p, func() error { calls++; return Permanent(base) })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	var perm *permanentError
	if !errors.Is(err, base) || errors.As(err, &perm) {
		t.Fatalf("err = %v, want unwrapped base error", err)
	}
	if !errors.As(Permanent(base), &perm) {
		t.Fatal("Permanent(err) carries no marker")
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
	if !errors.Is(fmt.Errorf("wrapped: %w", Permanent(base)), base) {
		t.Fatal("Permanent breaks errors.Is chain")
	}
}

func TestDoHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	calls := 0
	err := Do(ctx, p, func() error { calls++; return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Fatalf("calls = %d, want 0 on pre-canceled context", calls)
	}
}

func TestDoCancelDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel()
			return ctx.Err()
		}}
	err := Do(ctx, p, func() error { return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestJitterDeterministicWithSeed(t *testing.T) {
	sched := func(seed uint64) []time.Duration {
		var waits []time.Duration
		p := Policy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, Jitter: 1,
			RNG: stats.NewRNG(seed), Sleep: fakeSleep(&waits)}
		_ = Do(context.Background(), p, func() error { return errors.New("x") })
		return waits
	}
	a, b := sched(42), sched(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	for _, d := range a {
		if d < 0 {
			t.Fatalf("negative jittered delay %v", d)
		}
	}
	c := sched(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestZeroPolicyMeansOneAttempt(t *testing.T) {
	calls := 0
	boom := errors.New("x")
	err := Do(context.Background(), Policy{}, func() error { calls++; return boom })
	if calls != 1 || !errors.Is(err, boom) {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := NewBreaker(3, time.Minute)
	b.SetClock(func() time.Time { return clock })

	boom := errors.New("down")
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("breaker open after %d failures", i)
		}
		b.Record(boom)
	}
	if b.Allow() || !b.Open() {
		t.Fatal("breaker still closed after threshold failures")
	}

	// Cooldown elapses: calls are allowed until the next Record, and a
	// failure re-opens the circuit.
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() || !b.Allow() {
		t.Fatal("calls refused after cooldown")
	}
	b.Record(boom)
	if b.Allow() {
		t.Fatal("breaker closed again after failed probe")
	}

	// A success after the cooldown closes the circuit fully.
	clock = clock.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("call refused after cooldown")
	}
	b.Record(nil)
	if !b.Allow() || b.Open() {
		t.Fatal("breaker not closed after successful probe")
	}
}

// TestBreakerCountsTransitions holds the trip and close counters to
// their HELP texts: every failure from the threshold on is a trip, and
// the first success after the circuit opened is a close.
func TestBreakerCountsTransitions(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := NewBreaker(2, time.Minute)
	b.SetClock(func() time.Time { return clock })
	trips, closes := mTrips.Value(), mCloses.Value()
	check := func(step string, wantTrips, wantCloses uint64) {
		t.Helper()
		if got := mTrips.Value() - trips; got != wantTrips {
			t.Errorf("%s: %d trips, want %d", step, got, wantTrips)
		}
		if got := mCloses.Value() - closes; got != wantCloses {
			t.Errorf("%s: %d closes, want %d", step, got, wantCloses)
		}
	}
	boom := errors.New("x")
	b.Record(boom)
	check("below the threshold", 0, 0)
	b.Record(boom)
	check("at the threshold", 1, 0)
	b.Record(boom)
	check("a failure inside the cooldown", 2, 0)
	clock = clock.Add(2 * time.Minute)
	b.Record(boom)
	check("a failure after the cooldown", 3, 0)
	b.Record(nil)
	check("a success", 3, 1)
	b.Record(nil)
	check("a second success", 3, 1)
}

func TestBreakerFailuresCount(t *testing.T) {
	clock := time.Unix(1000, 0)
	b := NewBreaker(3, time.Minute)
	b.SetClock(func() time.Time { return clock })
	boom := errors.New("x")
	if b.Failures() != 0 {
		t.Fatalf("fresh breaker Failures = %d", b.Failures())
	}
	b.Record(boom)
	b.Record(boom)
	if b.Failures() != 2 {
		t.Fatalf("Failures after 2 errors = %d", b.Failures())
	}
	// A success wipes the consecutive count.
	b.Record(nil)
	if b.Failures() != 0 {
		t.Fatalf("Failures after success = %d", b.Failures())
	}
	// The count keeps climbing past the threshold while the circuit is
	// open — it reports consecutive failures, not a saturating trip flag.
	for i := 0; i < 3; i++ {
		b.Record(boom)
	}
	if !b.Open() || b.Failures() != 3 {
		t.Fatalf("open=%v Failures=%d, want open with 3", b.Open(), b.Failures())
	}
	clock = clock.Add(2 * time.Minute)
	b.Record(boom) // failed half-open probe
	if b.Failures() != 4 {
		t.Fatalf("Failures after failed probe = %d, want 4", b.Failures())
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := NewBreaker(3, time.Minute)
	boom := errors.New("x")
	b.Record(boom)
	b.Record(boom)
	b.Record(nil)
	b.Record(boom)
	b.Record(boom)
	if !b.Allow() {
		t.Fatal("non-consecutive failures opened breaker")
	}
}
