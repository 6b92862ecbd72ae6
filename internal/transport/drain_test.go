package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// gateResponder serves "wait" by blocking until the gate opens (or its
// context dies), and "echo" immediately.
type gateResponder struct {
	gate    chan struct{}
	started chan struct{}
}

func (g *gateResponder) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	switch method {
	case "echo":
		return body, nil
	case "wait":
		select {
		case g.started <- struct{}{}:
		default:
		}
		select {
		case <-g.gate:
			return body, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	default:
		return nil, errors.New("unknown method")
	}
}

// startDrainServer runs ServeWith on a fresh TCP listener and returns the
// address, the cancel that begins shutdown, and the exit channel.
func startDrainServer(t *testing.T, r Responder, opts ServeOptions) (addr string, cancel context.CancelFunc, exited chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	exited = make(chan error, 1)
	done := make(chan struct{})
	go func() { exited <- ServeWith(ctx, l, r, opts); close(done) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("ServeWith did not exit during cleanup")
		}
	})
	return l.Addr().String(), cancel, exited
}

func dialMux(t *testing.T, addr string) ConnCaller {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	caller, err := Connect(context.Background(), conn, nil)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	t.Cleanup(func() { caller.Close() })
	return caller
}

// TestServeWithDrainCompletesInFlight checks graceful shutdown: on
// cancellation the listener stops accepting, but a handler already in
// flight keeps running and its reply still reaches the client.
func TestServeWithDrainCompletesInFlight(t *testing.T) {
	r := &gateResponder{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	addr, cancel, exited := startDrainServer(t, r, ServeOptions{Drain: 30 * time.Second})
	caller := dialMux(t, addr)

	inFlight := make(chan error, 1)
	go func() {
		var out text
		inFlight <- caller.Call(context.Background(), "wait", text("payload"), &out)
	}()
	select {
	case <-r.started:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never started")
	}

	cancel()

	// New connections are refused once shutdown begins (the close is
	// asynchronous, so poll briefly).
	refused := false
	for i := 0; i < 100; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			refused = true
			break
		}
		// The listener may linger a moment; a served conn would answer
		// the preface. Close and retry.
		conn.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !refused {
		t.Fatal("listener still accepting long after shutdown began")
	}

	select {
	case err := <-inFlight:
		t.Fatalf("in-flight call returned during drain before release: %v", err)
	default:
	}

	close(r.gate)
	select {
	case err := <-inFlight:
		if err != nil {
			t.Fatalf("in-flight call during drain: %v, want success", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call did not complete after release")
	}

	select {
	case err := <-exited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ServeWith returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWith did not return after the drain emptied")
	}
}

// TestServeWithDrainDeadlineAborts checks the drain window is a deadline,
// not a hope: a handler that outlives it is canceled, the connection is
// torn down, and both the client and ServeWith unblock.
func TestServeWithDrainDeadlineAborts(t *testing.T) {
	r := &gateResponder{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	addr, cancel, exited := startDrainServer(t, r, ServeOptions{Drain: 50 * time.Millisecond})
	caller := dialMux(t, addr)

	inFlight := make(chan error, 1)
	go func() {
		inFlight <- caller.Call(context.Background(), "wait", text("x"), nil)
	}()
	select {
	case <-r.started:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never started")
	}

	cancel() // gate never opens: the handler can only exit via its context

	select {
	case err := <-inFlight:
		if err == nil {
			t.Fatal("call succeeded although its handler was aborted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client call hung past the drain deadline")
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWith hung past the drain deadline")
	}
}

// TestServeWithoutDrainAbortsImmediately pins the default: no drain
// window means cancellation closes connections at once and the in-flight
// call fails promptly instead of finishing.
func TestServeWithoutDrainAbortsImmediately(t *testing.T) {
	r := &gateResponder{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	addr, cancel, exited := startDrainServer(t, r, ServeOptions{})
	caller := dialMux(t, addr)

	inFlight := make(chan error, 1)
	go func() {
		inFlight <- caller.Call(context.Background(), "wait", text("x"), nil)
	}()
	select {
	case <-r.started:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never started")
	}

	cancel()

	select {
	case err := <-inFlight:
		if err == nil {
			t.Fatal("call succeeded although the server aborted without draining")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client call hung after an immediate abort")
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWith hung after an immediate abort")
	}
}
