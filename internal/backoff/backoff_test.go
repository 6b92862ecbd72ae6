package backoff

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDelaySchedule pins the exponential schedule through the Rand hook:
// growth by 2 from Initial, capped at Max, each delay drawn from its
// upper half (the hook's 0 is the half's floor, its 0.5 the midpoint).
func TestDelaySchedule(t *testing.T) {
	const ms, us = time.Millisecond, time.Microsecond
	for _, tc := range []struct {
		u    float64
		want []time.Duration // the last is capped
	}{
		{0, []time.Duration{5 * ms, 10 * ms, 20 * ms, 40 * ms, 40 * ms}},
		{0.5, []time.Duration{7500 * us, 15 * ms, 30 * ms, 60 * ms, 60 * ms}},
	} {
		p := Policy{Initial: 10 * ms, Max: 80 * ms, Rand: func() float64 { return tc.u }}
		for i, w := range tc.want {
			if got := p.Delay(i + 1); got != w {
				t.Errorf("u=%v: Delay(%d) = %v, want %v", tc.u, i+1, got, w)
			}
		}
	}
}

// TestDelayJitterBounds checks jittered delays stay within the
// [d/2, d] envelope and use the injected randomness.
func TestDelayJitterBounds(t *testing.T) {
	for _, u := range []float64{0, 0.5, 0.999} {
		p := Policy{Initial: 100 * time.Millisecond, Max: time.Second, Rand: func() float64 { return u }}
		d := p.Delay(1)
		lo := 50 * time.Millisecond
		hi := 100 * time.Millisecond
		if d < lo || d > hi {
			t.Errorf("u=%v: Delay = %v, want within [%v, %v]", u, d, lo, hi)
		}
	}
}

// TestRetrySucceedsAfterTransientFailures pins the basic recovery path:
// the first failures retry, the eventual success returns nil.
func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), "op", Policy{Initial: time.Millisecond}, nil,
		func(context.Context) error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

// TestRetryExhaustsAttemptsWithHistory checks the terminal error carries
// every attempt and unwraps to the final cause.
func TestRetryExhaustsAttemptsWithHistory(t *testing.T) {
	sentinel := errors.New("still down")
	calls := 0
	err := Retry(context.Background(), "op", Policy{Initial: time.Millisecond, MaxAttempts: 3}, nil,
		func(context.Context) error { calls++; return sentinel })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %T, want *ExhaustedError", err)
	}
	if len(ex.Attempts) != 3 || ex.GaveUp != "attempts" {
		t.Fatalf("history = %d attempts, gaveUp = %q; want 3, attempts", len(ex.Attempts), ex.GaveUp)
	}
	if !errors.Is(err, sentinel) {
		t.Fatal("terminal error does not unwrap to the final cause")
	}
}

// TestRetryNonRetryableSurfacesImmediately checks the retryable
// predicate stops the loop on the first ineligible failure.
func TestRetryNonRetryableSurfacesImmediately(t *testing.T) {
	fatal := errors.New("fatal")
	calls := 0
	err := Retry(context.Background(), "op", Policy{Initial: time.Millisecond},
		func(err error) bool { return !errors.Is(err, fatal) },
		func(context.Context) error { calls++; return fatal })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.GaveUp != "non-retryable" {
		t.Fatalf("err = %v, want non-retryable ExhaustedError", err)
	}
	if !errors.Is(err, fatal) {
		t.Fatal("terminal error does not unwrap to the cause")
	}
}

// TestRetryContextCanceledMidBackoff checks a context canceled while
// sleeping between attempts surfaces context.Canceled promptly.
func TestRetryContextCanceledMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, "op", Policy{Initial: time.Minute}, nil,
			func(context.Context) error { calls++; return errors.New("transient") })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retry did not return promptly after cancellation")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

// TestRetryElapsedWindow checks MaxElapsed with no attempt cap keeps
// retrying until the window closes, then reports "elapsed".
func TestRetryElapsedWindow(t *testing.T) {
	calls := 0
	start := time.Now()
	err := Retry(context.Background(), "op",
		Policy{Initial: time.Millisecond, Max: time.Millisecond, MaxElapsed: 50 * time.Millisecond},
		nil, func(context.Context) error { calls++; return errors.New("down") })
	var ex *ExhaustedError
	if !errors.As(err, &ex) || ex.GaveUp != "elapsed" {
		t.Fatalf("err = %v, want elapsed ExhaustedError", err)
	}
	if calls < 5 {
		t.Fatalf("calls = %d, want many within the window", calls)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry window ran far past MaxElapsed")
	}
}
