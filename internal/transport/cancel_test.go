package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/secerr"
)

// stallResponder holds "stall" until released or canceled and answers
// every other method at once.
type stallResponder struct{ release chan struct{} }

func (s stallResponder) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	if method != "stall" {
		return body, nil
	}
	select {
	case <-s.release:
	case <-ctx.Done():
	}
	return nil, errors.New("stalled")
}

// TestCallCancelMidRound cancels a context while the call is blocked
// waiting for the reply: the call must return the context error promptly
// instead of hanging on the read, and — the frame being abandoned, not
// the stream — the connection must serve the next call.
func TestCallCancelMidRound(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	caller, _ := pipePair(t, stallResponder{release: release}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- caller.Call(ctx, "stall", num(1), nil) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call did not return after cancellation")
	}
	if err := caller.Call(context.Background(), "next", num(1), nil); err != nil {
		t.Fatalf("connection unusable after a canceled round: %v", err)
	}
}

// TestCallPreCanceled rejects a dead context before any I/O.
func TestCallPreCanceled(t *testing.T) {
	caller, _ := pipePair(t, echoResponder{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := caller.Call(ctx, "x", num(1), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCallerDoubleClose checks Close is idempotent.
func TestCallerDoubleClose(t *testing.T) {
	caller, _ := pipePair(t, echoResponder{}, nil)
	if err := caller.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := caller.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

type codedResponder struct{}

func (codedResponder) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	return nil, secerr.New(secerr.CodeUnknownRelation, "relation %q not registered", "ghost")
}
