package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/secerr"
	"repro/internal/wire"
)

// num and text are the test messages: an integer and a string in the
// shared codec.
type num int

func (n num) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Varint(int64(n))
	return w.Finish()
}

func (n *num) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*n = num(r.Varint())
	return r.Finish()
}

type text string

func (s text) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(string(s))
	return w.Finish()
}

func (s *text) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*s = text(r.String("text"))
	return r.Finish()
}

// echoResponder implements Responder for tests: "echo" returns the body,
// "fail" returns an error, "double" decodes an int and doubles it.
type echoResponder struct{}

func (echoResponder) Serve(_ context.Context, method string, body []byte) ([]byte, error) {
	switch method {
	case "echo":
		return body, nil
	case "fail":
		return nil, errors.New("handler exploded")
	case "double":
		var v num
		if err := Decode(body, &v); err != nil {
			return nil, err
		}
		return Encode(v * 2)
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}

func TestLocalCallRoundTrip(t *testing.T) {
	stats := NewStats()
	c := NewLocal(echoResponder{}, stats)
	var out num
	if err := c.Call(context.Background(), "double", num(21), &out); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out != 42 {
		t.Fatalf("double(21) = %d", out)
	}
	if stats.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", stats.Rounds())
	}
	if stats.Bytes() <= 0 {
		t.Fatal("expected nonzero byte count")
	}
}

func TestLocalCallError(t *testing.T) {
	c := NewLocal(echoResponder{}, nil)
	var out num
	err := c.Call(context.Background(), "fail", num(1), &out)
	if err == nil || !strings.Contains(err.Error(), "handler exploded") {
		t.Fatalf("expected handler error, got %v", err)
	}
	if err := c.Call(context.Background(), "nope", num(1), &out); err == nil {
		t.Fatal("expected unknown-method error")
	}
}

func TestLocalNilResponder(t *testing.T) {
	c := NewLocal(nil, nil)
	if err := c.Call(context.Background(), "echo", num(1), nil); err == nil {
		t.Fatal("expected error for nil responder")
	}
}

func TestLocalNilResponse(t *testing.T) {
	c := NewLocal(echoResponder{}, nil)
	if err := c.Call(context.Background(), "echo", text("hello"), nil); err != nil {
		t.Fatalf("nil resp should be allowed: %v", err)
	}
}

func TestStatsPerMethod(t *testing.T) {
	s := NewStats()
	s.Record("a", 10, 20)
	s.Record("a", 1, 2)
	s.Record("b", 5, 5)
	if got := s.Method("a"); got.Calls != 2 || got.BytesSent != 11 || got.BytesReceived != 22 {
		t.Fatalf("method a stats wrong: %+v", got)
	}
	if got := s.Method("missing"); got.Calls != 0 {
		t.Fatalf("missing method should be zero: %+v", got)
	}
	if ms := s.Methods(); len(ms) != 2 || ms[0] != "a" || ms[1] != "b" {
		t.Fatalf("Methods() = %v", ms)
	}
	if s.Bytes() != 43 {
		t.Fatalf("Bytes = %d, want 43", s.Bytes())
	}
	if !strings.Contains(s.Snapshot(), "rounds=3") {
		t.Fatalf("Snapshot = %q", s.Snapshot())
	}
	s.Reset()
	if s.Rounds() != 0 || s.Bytes() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestLinkModelLatency(t *testing.T) {
	s := NewStats()
	// 50 Mbps: 6.25 MB/s. 625_000 bytes -> 0.1 s transfer.
	s.Record("x", 300_000, 325_000)
	l := LinkModel{BandwidthBitsPerSec: 50e6, RTT: 2 * time.Millisecond}
	got := l.Latency(s)
	want := 100*time.Millisecond + 2*time.Millisecond
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("latency = %v, want about %v", got, want)
	}
	// Zero-bandwidth model falls back to RTT-only.
	l0 := LinkModel{RTT: 5 * time.Millisecond}
	if got := l0.Latency(s); got != 5*time.Millisecond {
		t.Fatalf("rtt-only latency = %v", got)
	}
	if LAN50Mbps().BandwidthBitsPerSec != 50e6 {
		t.Fatal("LAN50Mbps bandwidth wrong")
	}
}

// TestEncodeDecodeRoundTrip: a message round-trips through its own
// codec, and a value that is not a message has no encoding either way.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	b, err := Encode(num(-7))
	if err != nil {
		t.Fatal(err)
	}
	var out num
	if err := Decode(b, &out); err != nil || out != -7 {
		t.Fatalf("round trip: %d, %v", out, err)
	}
	type plain struct{ A int }
	if _, err := Encode(plain{A: 1}); err == nil {
		t.Fatal("a struct without MarshalBinary was encoded")
	}
	var p plain
	if err := Decode(b, &p); err == nil {
		t.Fatal("a struct without UnmarshalBinary was decoded")
	}
}

// pipePair serves responder on one end of a net.Pipe and connects the
// other end.
func pipePair(t *testing.T, responder Responder, stats *Stats) (ConnCaller, net.Conn) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	go func() { _ = ServeConn(context.Background(), c2, responder) }()
	caller, err := Connect(context.Background(), c1, stats)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return caller, c2
}

func TestConnectOverPipe(t *testing.T) {
	stats := NewStats()
	caller, _ := pipePair(t, echoResponder{}, stats)
	var out num
	if err := caller.Call(context.Background(), "double", num(100), &out); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if out != 200 {
		t.Fatalf("double(100) = %d", out)
	}
	var s text
	if err := caller.Call(context.Background(), "echo", text("ping"), &s); err != nil {
		t.Fatalf("echo: %v", err)
	}
	if s != "ping" {
		t.Fatalf("echo = %q", s)
	}
	if stats.Rounds() != 2 {
		t.Fatalf("rounds = %d, want 2", stats.Rounds())
	}
	// Remote handler errors surface as call errors but keep the
	// connection usable.
	if err := caller.Call(context.Background(), "fail", num(1), nil); err == nil || !strings.Contains(err.Error(), "handler exploded") {
		t.Fatalf("expected remote error, got %v", err)
	}
	if err := caller.Call(context.Background(), "double", num(2), &out); err != nil || out != 4 {
		t.Fatalf("connection unusable after remote error: %v", err)
	}
}

// TestCallPeerClosedConn: once the peer has gone, a call is a typed
// transport error, not a hang and not a bare io error.
func TestCallPeerClosedConn(t *testing.T) {
	caller, peer := pipePair(t, echoResponder{}, nil)
	peer.Close()
	var out num
	if err := caller.Call(context.Background(), "double", num(8), &out); !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("call on a closed connection: want ErrTransport, got %v", err)
	}
}
