package cloud

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/secerr"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestBatchEnvelopeServer feeds a mixed envelope to a real Server: valid
// items succeed, hostile items earn per-item structured errors without
// failing their neighbours, and nested envelopes are rejected.
func TestBatchEnvelopeServer(t *testing.T) {
	e := env(t)
	hello, err := transport.Encode(&HelloRequest{Version: transport.ProtocolVersion})
	if err != nil {
		t.Fatal(err)
	}
	nested, err := transport.Encode(&BatchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	req := &BatchRequest{Items: []BatchItem{
		{Method: MethodHello, Body: hello},
		{Method: "Bogus", Body: nil},
		{Method: MethodEqBits, Body: []byte{0xff, 0x01}},
		{Method: MethodBatch, Body: nested},
	}}
	body, err := transport.Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.server.Serve(context.Background(), MethodBatch, body)
	if err != nil {
		t.Fatalf("batch envelope failed wholesale: %v", err)
	}
	var reply BatchReply
	if err := transport.Decode(out, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Items) != 4 {
		t.Fatalf("got %d item replies, want 4", len(reply.Items))
	}
	if reply.Items[0].ErrCode != "" {
		t.Errorf("valid Hello item failed: %s %s", reply.Items[0].ErrCode, reply.Items[0].ErrMsg)
	}
	var hr HelloReply
	if err := transport.Decode(reply.Items[0].Body, &hr); err != nil || hr.Version != transport.ProtocolVersion {
		t.Errorf("Hello item reply: %v / %+v", err, hr)
	}
	if got := reply.Items[1].ErrCode; got != string(secerr.CodeUnknownMethod) {
		t.Errorf("bogus method item: code %q", got)
	}
	if got := reply.Items[2].ErrCode; got != string(secerr.CodeBadRequest) {
		t.Errorf("malformed body item: code %q", got)
	}
	if got := reply.Items[3].ErrCode; got != string(secerr.CodeBadRequest) {
		t.Errorf("nested envelope item: code %q", got)
	}
}

// note is the stub's message: one string in the wire codec.
type note string

func (n note) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(string(n))
	return w.Finish()
}

func (n *note) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*n = note(r.String("note"))
	return r.Finish()
}

// stubCaller is a transport.Caller that records every envelope and can
// hold the first one until released.
type stubCaller struct {
	mu        sync.Mutex
	envelopes [][]BatchItem
	blockOnce chan struct{} // non-nil: the first envelope blocks on it
	fail      bool
}

func (s *stubCaller) Call(ctx context.Context, method string, req, resp any) error {
	if method != MethodBatch {
		return fmt.Errorf("stub: unexpected method %s", method)
	}
	breq := req.(*BatchRequest)
	s.mu.Lock()
	s.envelopes = append(s.envelopes, breq.Items)
	n := len(s.envelopes)
	blocker := s.blockOnce
	s.mu.Unlock()
	if n == 1 && blocker != nil {
		<-blocker
	}
	if s.fail {
		return secerr.New(secerr.CodeTransport, "stub: link down")
	}
	rep := resp.(*BatchReply)
	for _, it := range breq.Items {
		body, err := transport.Encode(note(it.Method + " ok"))
		if err != nil {
			return err
		}
		rep.Items = append(rep.Items, BatchResult{Body: body})
	}
	return nil
}

func (s *stubCaller) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.envelopes)
}

// TestBatcherCoalesces pins the scheduler contract: an idle link flushes
// immediately (envelope of one), and calls arriving behind an in-flight
// envelope coalesce into a single follow-up envelope when it returns.
func TestBatcherCoalesces(t *testing.T) {
	stub := &stubCaller{blockOnce: make(chan struct{})}
	b := NewBatcher(stub)
	b.window = time.Hour // tick out of the picture
	defer b.Close()

	firstDone := make(chan error, 1)
	go func() {
		var out note
		firstDone <- b.Call(context.Background(), "First", note(""), &out)
	}()
	waitFor(t, func() bool { return stub.count() == 1 })

	const queued = 5
	var wg sync.WaitGroup
	errs := make([]error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out note
			errs[i] = b.Call(context.Background(), fmt.Sprintf("Q%d", i), note(""), &out)
			if errs[i] == nil && string(out) != fmt.Sprintf("Q%d ok", i) {
				errs[i] = fmt.Errorf("reply %q routed to the wrong call", out)
			}
		}(i)
	}
	// Let every queued call enqueue behind the blocked envelope.
	time.Sleep(100 * time.Millisecond)
	if got := stub.count(); got != 1 {
		t.Fatalf("queued calls flushed behind an in-flight envelope: %d envelopes", got)
	}
	close(stub.blockOnce)
	if err := <-firstDone; err != nil {
		t.Fatalf("first call: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("queued call %d: %v", i, err)
		}
	}
	if got := stub.count(); got != 2 {
		t.Fatalf("got %d envelopes, want 2 (1 immediate + 1 coalesced)", got)
	}
	stub.mu.Lock()
	coalesced := len(stub.envelopes[1])
	stub.mu.Unlock()
	if coalesced != queued {
		t.Fatalf("follow-up envelope carries %d items, want %d", coalesced, queued)
	}
}

// TestBatcherTickFlush checks the ~1ms tick drains a convoy even while
// an envelope is still in flight.
func TestBatcherTickFlush(t *testing.T) {
	stub := &stubCaller{blockOnce: make(chan struct{})}
	b := NewBatcher(stub)
	b.window = time.Millisecond
	defer b.Close()
	go func() {
		var out note
		_ = b.Call(context.Background(), "Blocked", note(""), &out)
	}()
	waitFor(t, func() bool { return stub.count() == 1 })
	var out note
	if err := b.Call(context.Background(), "Ticked", note(""), &out); err != nil {
		t.Fatalf("ticked call: %v", err)
	}
	if out != "Ticked ok" {
		t.Fatalf("ticked call reply %q", out)
	}
	if got := stub.count(); got < 2 {
		t.Fatalf("tick did not flush past the in-flight envelope (%d envelopes)", got)
	}
	close(stub.blockOnce)
}

// TestBatcherCancelOneOfN cancels one queued call: it returns promptly
// with the context error while its co-batched neighbours complete.
func TestBatcherCancelOneOfN(t *testing.T) {
	stub := &stubCaller{blockOnce: make(chan struct{})}
	b := NewBatcher(stub)
	b.window = time.Hour
	defer b.Close()
	go func() {
		var out note
		_ = b.Call(context.Background(), "Blocked", note(""), &out)
	}()
	waitFor(t, func() bool { return stub.count() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	canceledDone := make(chan error, 1)
	go func() {
		var out note
		canceledDone <- b.Call(ctx, "Canceled", note(""), &out)
	}()
	survivorDone := make(chan error, 1)
	go func() {
		var out note
		survivorDone <- b.Call(context.Background(), "Survivor", note(""), &out)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-canceledDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call: want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled call did not return")
	}
	close(stub.blockOnce)
	if err := <-survivorDone; err != nil {
		t.Fatalf("survivor poisoned by the canceled neighbour: %v", err)
	}
}

// TestBatcherCloseQueued fails queued calls with a typed transport error
// and leaks no goroutine.
func TestBatcherCloseQueued(t *testing.T) {
	baseline := runtime.NumGoroutine()
	stub := &stubCaller{blockOnce: make(chan struct{})}
	b := NewBatcher(stub)
	b.window = time.Hour
	inflightDone := make(chan error, 1)
	go func() {
		var out note
		inflightDone <- b.Call(context.Background(), "Inflight", note(""), &out)
	}()
	waitFor(t, func() bool { return stub.count() == 1 })
	queuedDone := make(chan error, 1)
	go func() {
		var out note
		queuedDone <- b.Call(context.Background(), "Queued", note(""), &out)
	}()
	time.Sleep(50 * time.Millisecond)
	// Let the in-flight envelope drain under Close, and only once Close
	// has taken the queue: released earlier, its return would ship the
	// queued call itself.
	go func() {
		for closed := false; !closed; time.Sleep(time.Millisecond) {
			b.mu.Lock()
			closed = b.closed
			b.mu.Unlock()
		}
		close(stub.blockOnce)
	}()
	b.Close()
	if err := <-queuedDone; !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("queued call after Close: want ErrTransport, got %v", err)
	}
	if err := <-inflightDone; err != nil {
		t.Fatalf("in-flight call: %v", err)
	}
	// Post-Close calls fail fast; double Close is safe.
	if err := b.Call(context.Background(), "Post", note(""), nil); !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("post-Close call: want ErrTransport, got %v", err)
	}
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak: %d alive, baseline %d", n, baseline)
	}
}

// TestBatcherLinkFailure propagates an envelope failure to every
// co-batched call.
func TestBatcherLinkFailure(t *testing.T) {
	stub := &stubCaller{fail: true}
	b := NewBatcher(stub)
	defer b.Close()
	err := b.Call(context.Background(), "Doomed", note(""), nil)
	if !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("want ErrTransport, got %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
