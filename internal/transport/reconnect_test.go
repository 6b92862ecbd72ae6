package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/secerr"
)

// scriptedCaller is a ConnCaller whose next failures are scripted.
type scriptedCaller struct {
	mu     sync.Mutex
	fails  []error // consumed one per Call; nil entries succeed
	calls  int
	closed bool
}

func (s *scriptedCaller) Call(context.Context, string, any, any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if len(s.fails) == 0 {
		return nil
	}
	err := s.fails[0]
	s.fails = s.fails[1:]
	return err
}

func (s *scriptedCaller) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *scriptedCaller) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// fastPolicy keeps reconnect tests quick and deterministic.
var fastPolicy = backoff.Policy{Initial: time.Millisecond, Max: time.Millisecond, Rand: func() float64 { return 0 }}

// TestReconnectRedialsAfterTransportFailure checks a transport-coded call
// failure tears down the connection (closing it) and the next Call dials
// a fresh one, re-running OnConnect.
func TestReconnectRedialsAfterTransportFailure(t *testing.T) {
	first := &scriptedCaller{fails: []error{secerr.New(secerr.CodeTransport, "link died")}}
	second := &scriptedCaller{}
	callers := []*scriptedCaller{first, second}
	var dials, hellos atomic.Int32
	rc := NewReconnectCaller(ReconnectConfig{
		Dial: func(context.Context) (ConnCaller, error) {
			return callers[dials.Add(1)-1], nil
		},
		OnConnect: func(context.Context, Caller) error { hellos.Add(1); return nil },
		Policy:    fastPolicy,
	})
	defer rc.Close()

	err := rc.Call(context.Background(), "m", nil, nil)
	if !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("first call: %v, want the transport failure surfaced (not retried here)", err)
	}
	if !first.isClosed() {
		t.Fatal("failed connection not closed")
	}
	if err := rc.Call(context.Background(), "m", nil, nil); err != nil {
		t.Fatalf("call after redial: %v", err)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2", got)
	}
	if got := hellos.Load(); got != 2 {
		t.Fatalf("OnConnect runs = %d, want one per connection (2)", got)
	}
}

// TestReconnectPeerErrorKeepsConnection checks a peer-reported (non
// transport) error does not tear the connection down.
func TestReconnectPeerErrorKeepsConnection(t *testing.T) {
	c := &scriptedCaller{fails: []error{secerr.New(secerr.CodeUnknownRelation, "no such relation")}}
	var dials atomic.Int32
	rc := NewReconnectCaller(ReconnectConfig{
		Dial:   func(context.Context) (ConnCaller, error) { dials.Add(1); return c, nil },
		Policy: fastPolicy,
	})
	defer rc.Close()
	if err := rc.Call(context.Background(), "m", nil, nil); !errors.Is(err, secerr.ErrUnknownRelation) {
		t.Fatalf("call: %v, want the peer error surfaced", err)
	}
	if err := rc.Call(context.Background(), "m", nil, nil); err != nil {
		t.Fatalf("second call: %v", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1 (peer errors keep the link)", got)
	}
}

// upstreamDownResponder replies to every call with a typed transport
// error — a peer reporting that its own upstream link failed, as S1
// does to its clients when its link to S2 drops mid-query.
type upstreamDownResponder struct{}

func (upstreamDownResponder) Serve(context.Context, string, []byte) ([]byte, error) {
	return nil, secerr.New(secerr.CodeTransport, "upstream link lost")
}

// TestReconnectKeepsLinkOnPeerTransportError checks the connection is
// torn down only when the link itself failed: a transport-coded error
// the peer sent back as its reply, and a request that failed to encode
// and so was never sent, both leave the live connection in place.
func TestReconnectKeepsLinkOnPeerTransportError(t *testing.T) {
	var dials atomic.Int32
	rc := NewReconnectCaller(ReconnectConfig{
		Dial: func(context.Context) (ConnCaller, error) {
			dials.Add(1)
			c1, c2 := net.Pipe()
			t.Cleanup(func() { c1.Close(); c2.Close() })
			go func() { _ = ServeConn(context.Background(), c2, upstreamDownResponder{}) }()
			return Connect(context.Background(), c1, nil)
		},
		Policy: fastPolicy,
	})
	defer rc.Close()
	for i := 0; i < 3; i++ {
		if err := rc.Call(context.Background(), "m", num(1), nil); !errors.Is(err, secerr.ErrTransport) {
			t.Fatalf("call %d: %v, want the peer's transport error surfaced", i, err)
		}
	}
	type plain struct{ A int }
	if err := rc.Call(context.Background(), "m", plain{A: 1}, nil); err == nil {
		t.Fatal("a request with no encoding was sent")
	}
	if !rc.Connected() {
		t.Fatal("the connection was dropped")
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1 (the link never failed)", got)
	}
}

// TestReconnectDialBackoff checks dialing retries transient failures with
// the policy and eventually succeeds.
func TestReconnectDialBackoff(t *testing.T) {
	var dials atomic.Int32
	rc := NewReconnectCaller(ReconnectConfig{
		Dial: func(context.Context) (ConnCaller, error) {
			if dials.Add(1) < 3 {
				return nil, secerr.New(secerr.CodeTransport, "connection refused")
			}
			return &scriptedCaller{}, nil
		},
		Policy: fastPolicy,
	})
	defer rc.Close()
	if err := rc.Call(context.Background(), "m", nil, nil); err != nil {
		t.Fatalf("call: %v", err)
	}
	if got := dials.Load(); got != 3 {
		t.Fatalf("dials = %d, want 3", got)
	}
}

// TestReconnectDialNonRetryable checks a protocol-version mismatch stops
// the dial loop immediately with the attempt history attached.
func TestReconnectDialNonRetryable(t *testing.T) {
	var dials atomic.Int32
	rc := NewReconnectCaller(ReconnectConfig{
		Dial: func(context.Context) (ConnCaller, error) {
			dials.Add(1)
			return nil, secerr.New(secerr.CodeProtocolVersion, "peer speaks v1")
		},
		Policy: fastPolicy,
	})
	defer rc.Close()
	err := rc.Call(context.Background(), "m", nil, nil)
	if !errors.Is(err, secerr.ErrProtocolVersion) {
		t.Fatalf("call: %v, want protocol version error", err)
	}
	var ex *backoff.ExhaustedError
	if !errors.As(err, &ex) || ex.GaveUp != "non-retryable" {
		t.Fatalf("err = %v, want non-retryable ExhaustedError with history", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
}

// TestReconnectOnConnectFailureDiscardsConn checks an OnConnect (Hello)
// failure closes the fresh connection and counts as a failed attempt.
func TestReconnectOnConnectFailureDiscardsConn(t *testing.T) {
	bad := &scriptedCaller{}
	good := &scriptedCaller{}
	var dials atomic.Int32
	rc := NewReconnectCaller(ReconnectConfig{
		Dial: func(context.Context) (ConnCaller, error) {
			if dials.Add(1) == 1 {
				return bad, nil
			}
			return good, nil
		},
		OnConnect: func(_ context.Context, c Caller) error {
			if c == ConnCaller(bad) {
				return secerr.New(secerr.CodeTransport, "hello failed")
			}
			return nil
		},
		Policy: fastPolicy,
	})
	defer rc.Close()
	if err := rc.Call(context.Background(), "m", nil, nil); err != nil {
		t.Fatalf("call: %v", err)
	}
	if !bad.isClosed() {
		t.Fatal("connection whose Hello failed was not closed")
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2", got)
	}
}

// TestReconnectConcurrentSingleFlight checks concurrent calls share one
// dialed connection instead of racing their own dials.
func TestReconnectConcurrentSingleFlight(t *testing.T) {
	c := &scriptedCaller{}
	var dials atomic.Int32
	rc := NewReconnectCaller(ReconnectConfig{
		Dial: func(context.Context) (ConnCaller, error) {
			dials.Add(1)
			time.Sleep(5 * time.Millisecond) // widen the race window
			return c, nil
		},
		Policy: fastPolicy,
	})
	defer rc.Close()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = rc.Call(context.Background(), "m", nil, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1 (one shared dial)", got)
	}
}

// TestReconnectClose checks a closed caller refuses to dial again and
// fails fast with a transport code.
func TestReconnectClose(t *testing.T) {
	c := &scriptedCaller{}
	var dials atomic.Int32
	rc := NewReconnectCaller(ReconnectConfig{
		Dial:   func(context.Context) (ConnCaller, error) { dials.Add(1); return c, nil },
		Policy: fastPolicy,
	})
	if err := rc.Call(context.Background(), "m", nil, nil); err != nil {
		t.Fatalf("call: %v", err)
	}
	if !rc.Connected() {
		t.Fatal("Connected() = false with a live connection")
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !c.isClosed() {
		t.Fatal("Close did not close the live connection")
	}
	if err := rc.Call(context.Background(), "m", nil, nil); !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("call after Close: %v, want transport code", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials = %d, want 1 (no dialing after Close)", got)
	}
}
