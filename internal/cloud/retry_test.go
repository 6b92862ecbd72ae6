package cloud

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/secerr"
)

// flakySeq is a Caller whose scripted errors are consumed one per Call
// (nil entries succeed).
type flakySeq struct {
	errs  []error
	calls int
}

func (f *flakySeq) Call(context.Context, string, any, any) error {
	f.calls++
	if len(f.errs) == 0 {
		return nil
	}
	err := f.errs[0]
	f.errs = f.errs[1:]
	return err
}

var retryTestPolicy = backoff.Policy{Initial: time.Millisecond, Max: time.Millisecond, Jitter: -1, MaxAttempts: 3}

// TestRetryCallerRetriesTransportFailures checks a retryable method's
// link failure is re-issued until it succeeds.
func TestRetryCallerRetriesTransportFailures(t *testing.T) {
	inner := &flakySeq{errs: []error{
		secerr.New(secerr.CodeTransport, "link lost"),
		secerr.New(secerr.CodeOverloaded, "shed"),
		nil,
	}}
	rc := NewRetryCaller(inner, retryTestPolicy)
	if err := rc.Call(context.Background(), MethodCompare, nil, nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("calls = %d, want 3 (two retries)", inner.calls)
	}
}

// TestRetryCallerPeerErrorsSurfaceImmediately checks an error the peer
// computed (not a link failure) is never retried and keeps its code.
func TestRetryCallerPeerErrorsSurfaceImmediately(t *testing.T) {
	inner := &flakySeq{errs: []error{secerr.New(secerr.CodeInvalidToken, "bad token")}}
	rc := NewRetryCaller(inner, retryTestPolicy)
	err := rc.Call(context.Background(), MethodCompare, nil, nil)
	if !errors.Is(err, secerr.ErrInvalidToken) {
		t.Fatalf("Call: %v, want invalid token surfaced", err)
	}
	if inner.calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry of peer errors)", inner.calls)
	}
	var ex *backoff.ExhaustedError
	if !errors.As(err, &ex) || len(ex.Attempts) != 1 {
		t.Fatalf("err = %v, want attempt history attached", err)
	}
}

// TestRetryCallerUnknownMethodNotRetried checks a method outside the
// retryability table passes through without retries even on a link
// failure: its idempotency has not been argued.
func TestRetryCallerUnknownMethodNotRetried(t *testing.T) {
	inner := &flakySeq{errs: []error{secerr.New(secerr.CodeTransport, "link lost")}}
	rc := NewRetryCaller(inner, retryTestPolicy)
	err := rc.Call(context.Background(), "FutureMutation", nil, nil)
	if !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("Call: %v, want the transport failure surfaced", err)
	}
	if inner.calls != 1 {
		t.Fatalf("calls = %d, want 1", inner.calls)
	}
}

// TestRetryCallerExhaustionCarriesHistory checks a persistently failing
// round exhausts the policy and reports every attempt.
func TestRetryCallerExhaustionCarriesHistory(t *testing.T) {
	inner := &flakySeq{errs: []error{
		secerr.New(secerr.CodeTransport, "one"),
		secerr.New(secerr.CodeTransport, "two"),
		secerr.New(secerr.CodeTransport, "three"),
	}}
	rc := NewRetryCaller(inner, retryTestPolicy)
	err := rc.Call(context.Background(), MethodEqBits, nil, nil)
	if !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("Call: %v, want transport classification preserved", err)
	}
	var ex *backoff.ExhaustedError
	if !errors.As(err, &ex) || len(ex.Attempts) != 3 || ex.GaveUp != "attempts" {
		t.Fatalf("err = %v, want 3-attempt exhaustion history", err)
	}
}

// TestRetryCallerEveryWireMethodIsTabled checks the retryability table
// covers exactly the declared method set, so adding a method without
// deciding its retryability is caught here. EqBits stays retryable in its
// grouped form (wire v7) and its matrix form (wire v8): an OR over a
// group, or a sum over a matrix row, is as stateless as one zero test,
// and Dedup's two remaining modes are the same transform as
// before. Recover, which S2 no longer serves, is an unknown method and so
// not retryable.
func TestRetryCallerEveryWireMethodIsTabled(t *testing.T) {
	for _, m := range []string{
		MethodHello, MethodEqBits, MethodCompare,
		MethodCompareHidden, MethodMult, MethodDedup, MethodFilter, MethodBatch,
	} {
		if !MethodRetryable(m) {
			t.Errorf("method %s missing from the retryability table", m)
		}
	}
	if MethodRetryable(MethodRecover) {
		t.Error("Recover, no longer served, is tabled as retryable")
	}
}

// TestMethodApplyFailClosed pins the mutation plane's wire-layer choice:
// Apply has side effects (it advances a hosted relation's epoch), so a
// failed round must NOT be blindly re-issued here — exactly-once comes
// from the delta's idempotency key one layer up. Both the table entry
// and the RetryCaller behaviour are pinned so neither can be "completed"
// mechanically into retry-everything.
func TestMethodApplyFailClosed(t *testing.T) {
	if MethodRetryable(MethodApply) {
		t.Fatal("MethodApply is marked retryable; it mutates hosted state")
	}
	inner := &flakySeq{errs: []error{secerr.New(secerr.CodeTransport, "link lost mid-apply")}}
	rc := NewRetryCaller(inner, retryTestPolicy)
	err := rc.Call(context.Background(), MethodApply, nil, nil)
	if !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("Call: %v, want the transport failure surfaced unretried", err)
	}
	if inner.calls != 1 {
		t.Fatalf("calls = %d, want exactly 1 (no blind re-issue of Apply)", inner.calls)
	}
}
