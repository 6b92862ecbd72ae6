// Package backoff is the shared retry/backoff helper behind every
// recovery path in the system: the transport's reconnecting caller, the
// facade's retrying client plane, and sectopk-node's dial loop. One implementation means one failure
// model: capped exponential backoff with jitter, cooperative
// context cancellation between attempts, and attempt histories attached
// to terminal failures so operators see what was tried, not just what
// finally failed.
package backoff

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Defaults used by the zero Policy. They favor fast local links (the
// paper's S1/S2 sit in the same cloud): first retry after ~25ms, growing
// 2x to a 2s cap.
const (
	DefaultInitial     = 25 * time.Millisecond
	DefaultMax         = 2 * time.Second
	DefaultMaxAttempts = 4
)

// Every schedule grows by factor between retries, and jitter is the
// randomized fraction of each delay: the actual sleep is
// d*(1-jitter) + rand*d*jitter, decorrelating retry storms from
// concurrent callers.
const (
	factor = 2.0
	jitter = 0.5
)

// Policy describes a capped exponential backoff schedule. The zero value
// uses the package defaults; set MaxAttempts < 0 for a single attempt
// (no retries) and MaxElapsed to bound the total retry window instead of
// (or in addition to) the attempt count.
type Policy struct {
	// Initial is the base delay before the first retry.
	Initial time.Duration
	// Max caps the per-retry delay after exponential growth.
	Max time.Duration
	// MaxAttempts bounds the total tries (first call included).
	// 0 picks DefaultMaxAttempts; negative means exactly one attempt.
	MaxAttempts int
	// MaxElapsed, when positive, stops retrying once the time since the
	// first attempt exceeds it, regardless of the attempt count.
	MaxElapsed time.Duration
	// Rand, when non-nil, supplies the jitter randomness (for
	// deterministic tests). It must return values in [0, 1).
	Rand func() float64
}

// jitterMu guards the shared fallback randomness source.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func (p Policy) initial() time.Duration {
	if p.Initial > 0 {
		return p.Initial
	}
	return DefaultInitial
}

func (p Policy) max() time.Duration {
	if p.Max > 0 {
		return p.Max
	}
	return DefaultMax
}

// Attempts returns the effective attempt bound (>= 1), or 0 for
// unbounded (an explicit MaxElapsed window with no attempt cap).
func (p Policy) Attempts() int {
	switch {
	case p.MaxAttempts > 0:
		return p.MaxAttempts
	case p.MaxAttempts < 0:
		return 1
	case p.MaxElapsed > 0:
		return 0 // the elapsed window alone governs
	default:
		return DefaultMaxAttempts
	}
}

// Delay returns the randomized delay before retry number retry (1 is the
// first retry, i.e. before attempt 2).
func (p Policy) Delay(retry int) time.Duration {
	if retry < 1 {
		retry = 1
	}
	d := float64(p.initial())
	limit := float64(p.max())
	for i := 1; i < retry && d < limit; i++ {
		d *= factor
	}
	d = min(d, limit)
	var u float64
	if p.Rand != nil {
		u = p.Rand()
	} else {
		jitterMu.Lock()
		u = jitterRand.Float64()
		jitterMu.Unlock()
	}
	return time.Duration(d*(1-jitter) + d*jitter*u)
}

// Sleep waits the randomized delay for retry number retry, returning
// early with the context's error if it fires first.
func (p Policy) Sleep(ctx context.Context, retry int) error {
	d := p.Delay(retry)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Attempt records one failed try for the attempt history.
type Attempt struct {
	// N is the attempt number, starting at 1.
	N int
	// Err is that attempt's failure.
	Err error
}

// ExhaustedError is the terminal failure of a retried operation: the
// last error (which Unwrap exposes, so errors.Is/As classify the failure
// by its final cause) plus the full attempt history.
type ExhaustedError struct {
	// Op names the retried operation.
	Op string
	// Attempts holds every failed try in order; the last entry is the
	// terminal one.
	Attempts []Attempt
	// GaveUp says why retrying stopped: "attempts", "elapsed",
	// "non-retryable", or "context".
	GaveUp string
}

// Error renders the terminal failure with the attempt history attached.
func (e *ExhaustedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v", e.Op, e.Attempts[len(e.Attempts)-1].Err)
	fmt.Fprintf(&b, " (gave up after %d attempt(s): %s", len(e.Attempts), e.GaveUp)
	if len(e.Attempts) > 1 {
		b.WriteString("; earlier:")
		for _, a := range e.Attempts[:len(e.Attempts)-1] {
			fmt.Fprintf(&b, " [#%d %v]", a.N, a.Err)
		}
	}
	b.WriteString(")")
	return b.String()
}

// Unwrap exposes the final attempt's error so errors.Is/As keep
// classifying the failure by its last cause.
func (e *ExhaustedError) Unwrap() error {
	return e.Attempts[len(e.Attempts)-1].Err
}

// Retry runs fn until it succeeds, the policy is exhausted, the error is
// ruled non-retryable, or the context is done. retryable may be nil
// (every error retries). The terminal error is an *ExhaustedError
// carrying the attempt history and wrapping the final cause.
func Retry(ctx context.Context, op string, p Policy, retryable func(error) bool, fn func(ctx context.Context) error) error {
	start := time.Now()
	var history []Attempt
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if len(history) == 0 {
				return err
			}
			return &ExhaustedError{Op: op, Attempts: append(history, Attempt{N: attempt, Err: err}), GaveUp: "context"}
		}
		err := fn(ctx)
		if err == nil {
			return nil
		}
		history = append(history, Attempt{N: attempt, Err: err})
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
			// The caller gave up; surfacing promptly beats another retry.
			return &ExhaustedError{Op: op, Attempts: history, GaveUp: "context"}
		case retryable != nil && !retryable(err):
			return &ExhaustedError{Op: op, Attempts: history, GaveUp: "non-retryable"}
		case p.Attempts() > 0 && attempt >= p.Attempts():
			return &ExhaustedError{Op: op, Attempts: history, GaveUp: "attempts"}
		case p.MaxElapsed > 0 && time.Since(start) >= p.MaxElapsed:
			return &ExhaustedError{Op: op, Attempts: history, GaveUp: "elapsed"}
		}
		if serr := p.Sleep(ctx, attempt); serr != nil {
			return &ExhaustedError{Op: op, Attempts: append(history, Attempt{N: attempt + 1, Err: serr}), GaveUp: "context"}
		}
	}
}
