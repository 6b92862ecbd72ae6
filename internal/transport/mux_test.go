package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/secerr"
)

// gatedResponder answers method ":" body and can hold designated methods
// until released.
type gatedResponder struct {
	mu   sync.Mutex
	gate map[string]chan struct{}
}

func newGatedResponder() *gatedResponder {
	return &gatedResponder{gate: map[string]chan struct{}{}}
}

// hold makes future calls of method block until the returned release
// function runs.
func (r *gatedResponder) hold(method string) func() {
	ch := make(chan struct{})
	r.mu.Lock()
	r.gate[method] = ch
	r.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func (r *gatedResponder) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	r.mu.Lock()
	gate := r.gate[method]
	r.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return Encode(text(method + " handled"))
}

// muxPair starts a connected client/server over TCP loopback.
func muxPair(t *testing.T, responder Responder) (*MuxCaller, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = Serve(ctx, l, responder)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	caller, err := Connect(context.Background(), conn, NewStats())
	if err != nil {
		cancel()
		t.Fatalf("Connect: %v", err)
	}
	mux, ok := caller.(*MuxCaller)
	if !ok {
		cancel()
		t.Fatalf("Connect negotiated %T, want *MuxCaller", caller)
	}
	return mux, func() {
		mux.Close()
		cancel()
		<-served
	}
}

// waitForGoroutines polls until the goroutine count drops to at most
// want, tolerating runtime stragglers for a bounded time.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d goroutines alive, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMuxConcurrentCalls drives many concurrent calls over one
// connection and checks every reply lands on its own call.
func TestMuxConcurrentCalls(t *testing.T) {
	mux, stop := muxPair(t, newGatedResponder())
	defer stop()
	const calls = 64
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			method := fmt.Sprintf("m%d", i)
			var out text
			if err := mux.Call(context.Background(), method, num(i), &out); err != nil {
				errs[i] = err
				return
			}
			if want := text(method + " handled"); out != want {
				errs[i] = fmt.Errorf("reply %q routed to %q", out, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

// TestMuxCancelOneOfN is the multiplexing contract: canceling one of N
// in-flight calls abandons only that call's frame — its siblings complete
// and the connection stays usable.
func TestMuxCancelOneOfN(t *testing.T) {
	resp := newGatedResponder()
	mux, stop := muxPair(t, resp)
	defer stop()

	releaseSlow := resp.hold("slow")
	releaseStuck := resp.hold("stuck")

	const siblings = 4
	var wg sync.WaitGroup
	sibErrs := make([]error, siblings)
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out text
			sibErrs[i] = mux.Call(context.Background(), "slow", num(i), &out)
		}(i)
	}

	ctx, cancel := context.WithCancel(context.Background())
	stuckDone := make(chan error, 1)
	go func() {
		var out text
		stuckDone <- mux.Call(ctx, "stuck", num(0), &out)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-stuckDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call: want context.Canceled, got %v", err)
		}
		if !strings.Contains(err.Error(), "stuck") || !strings.Contains(err.Error(), "frame") {
			t.Fatalf("canceled call error does not name its frame: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled call did not return")
	}

	// The siblings must complete normally once released.
	releaseSlow()
	wg.Wait()
	for i, err := range sibErrs {
		if err != nil {
			t.Errorf("sibling %d poisoned by the canceled call: %v", i, err)
		}
	}
	// And the connection is still healthy for new calls.
	var out text
	if err := mux.Call(context.Background(), "after", num(0), &out); err != nil {
		t.Fatalf("connection unusable after a canceled call: %v", err)
	}
	releaseStuck()
}

// TestMuxTeardownInFlight closes the caller with calls in flight: each
// fails promptly with a typed transport error naming its own frame, and
// no goroutine survives the teardown.
func TestMuxTeardownInFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	resp := newGatedResponder()
	mux, stop := muxPair(t, resp)

	release := resp.hold("held")
	defer release()
	const inflight = 3
	done := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			var out text
			done <- mux.Call(context.Background(), "held", num(i), &out)
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	mux.Close()
	for i := 0; i < inflight; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, secerr.ErrTransport) {
				t.Fatalf("in-flight call after Close: want ErrTransport, got %v", err)
			}
			if !strings.Contains(err.Error(), "held") || !strings.Contains(err.Error(), "frame") {
				t.Fatalf("teardown error does not name the failed frame: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight call hung through Close")
		}
	}
	// New calls fail fast, and Close is idempotent.
	if err := mux.Call(context.Background(), "post", num(0), nil); !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("call after Close: want ErrTransport, got %v", err)
	}
	mux.Close()
	release()
	stop()
	waitForGoroutines(t, baseline)
}

// TestConnectPrefaceNoAnswer pins the fail-fast behavior against a peer
// that accepts the connection, reads, and never answers the preface:
// Connect must return a transport error when the context expires, not
// hang.
func TestConnectPrefaceNoAnswer(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() { // swallow the preface, answer nothing
		buf := make([]byte, 4)
		io.ReadFull(c2, buf)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Connect(ctx, c1, nil)
	if err == nil {
		t.Fatal("Connect succeeded against a peer that never answered the preface")
	}
	if !errors.Is(err, secerr.ErrTransport) {
		t.Fatalf("want a typed transport error, got %v", err)
	}
}

// TestMuxStructuredErrors checks (code, message) pairs survive the
// framing.
func TestMuxStructuredErrors(t *testing.T) {
	mux, stop := muxPair(t, codedResponder{})
	defer stop()
	err := mux.Call(context.Background(), "boom", num(1), nil)
	if !errors.Is(err, secerr.ErrUnknownRelation) {
		t.Fatalf("code lost over the wire: %v", err)
	}
}

// TestLocalCountsWhatTheMuxCounts runs the same calls, one answered and
// one refused, through the in-process caller and over a connection: both
// record method name + body out and status byte + payload back, so the
// in-process byte counts are the wire's.
func TestLocalCountsWhatTheMuxCounts(t *testing.T) {
	mux, stop := muxPair(t, echoResponder{})
	defer stop()
	localStats := NewStats()
	local := NewLocal(echoResponder{}, localStats)
	ctx := context.Background()
	for _, c := range []Caller{local, mux} {
		var out num
		if err := c.Call(ctx, "double", num(21), &out); err != nil || out != 42 {
			t.Fatalf("double = %d, %v", out, err)
		}
		if err := c.Call(ctx, "fail", num(1), nil); err == nil {
			t.Fatal("fail succeeded")
		}
	}
	for _, method := range []string{"double", "fail"} {
		l, m := localStats.Method(method), mux.stats.Method(method)
		if l != m || l.BytesSent <= int64(len(method)) || l.BytesReceived <= 1 {
			t.Errorf("%s: Local recorded %+v, MuxCaller %+v", method, l, m)
		}
	}
}

// TestWireErrorCodec: the (code, message) pair round-trips, and a payload
// that is cut short, claims more than it holds or carries trailing bytes
// is refused (decodeWireError then degrades it to an internal error).
func TestWireErrorCodec(t *testing.T) {
	in := wireError{Code: "bad_request", Msg: "cloud: decoding EqBits: ☃"}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(in.Code) + len(in.Msg) + 2; len(b) != want {
		t.Errorf("error payload is %d bytes, want %d", len(b), want)
	}
	var out wireError
	if err := Decode(b, &out); err != nil || out != in {
		t.Fatalf("round trip: %+v, %v", out, err)
	}
	for name, bad := range map[string][]byte{
		"empty":     {},
		"cut short": b[:len(b)-1],
		"trailing":  append(append([]byte{}, b...), 0),
		"overrun":   {0xff, 0xff, 0xff, 0xff, 0x0f, 'x'},
	} {
		if err := Decode(bad, &out); err == nil {
			t.Errorf("%s: decoded %x", name, bad)
		}
	}
	if err := decodeWireError([]byte("not a pair")); secerr.CodeOf(err) != secerr.CodeInternal {
		t.Errorf("undecodable payload became %v", err)
	}
}

// prefaceBytes is a preface carrying the given version; frameBytes a
// well-formed request frame; claim a bare length prefix.
func prefaceBytes(ver int) []byte {
	return []byte{muxMagic[0], muxMagic[1], muxMagic[2], byte(ver)}
}

func frameBytes(id uint64, method string, body []byte) []byte {
	var b bytes.Buffer
	writeMuxFrame(bufio.NewWriter(&b), id, []byte(method), body)
	return b.Bytes()
}

func claim(n uint64) []byte { return binary.AppendUvarint(nil, n) }

// countingResponder counts what reaches the handler layer.
type countingResponder struct{ served atomic.Int32 }

func (c *countingResponder) Serve(context.Context, string, []byte) ([]byte, error) {
	c.served.Add(1)
	return nil, nil
}

// TestPrefaceRefused: a connection that does not open with the preface
// at this build's version is refused — typed, at once, and before
// anything reaches the responder — whichever side is the odd one out.
func TestPrefaceRefused(t *testing.T) {
	cases := []struct {
		name string
		open []byte
		want error
	}{
		{"older version", prefaceBytes(ProtocolVersion - 1), secerr.ErrProtocolVersion},
		{"wire v3, the gob-framed messages", prefaceBytes(3), secerr.ErrProtocolVersion},
		{"newer version", prefaceBytes(ProtocolVersion + 1), secerr.ErrProtocolVersion},
		{"no preface", frameBytes(0, "Hello", []byte("body")), secerr.ErrTransport},
		{"wrong magic", []byte{muxMagic[0], 'X'}, secerr.ErrTransport},
	}
	for _, tc := range cases {
		t.Run("server/"+tc.name, func(t *testing.T) {
			c1, c2 := net.Pipe()
			defer c1.Close()
			resp := &countingResponder{}
			served := make(chan error, 1)
			go func() { defer c2.Close(); served <- ServeConn(context.Background(), c2, resp) }()
			// net.Pipe is unbuffered: the write returns once the server has
			// read as far as it is going to; what it leaves unread is dropped
			// when it closes. The odd peer is never waited on for more.
			go c1.Write(tc.open)
			go io.Copy(io.Discard, c1) // the server's own preface, where it sends one
			select {
			case err := <-served:
				if !errors.Is(err, tc.want) {
					t.Fatalf("ServeConn = %v, want %v", err, tc.want)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("ServeConn kept waiting on a peer it should have refused")
			}
			if n := resp.served.Load(); n != 0 {
				t.Fatalf("%d calls reached the responder", n)
			}
		})
	}
	// The other direction: a server at another version answers the preface
	// with its own, and Connect refuses it typed.
	for _, ver := range []int{ProtocolVersion - 1, ProtocolVersion + 1} {
		t.Run(fmt.Sprintf("client/peer-v%d", ver), func(t *testing.T) {
			c1, c2 := net.Pipe()
			defer c1.Close()
			defer c2.Close()
			go func() {
				io.ReadFull(c2, make([]byte, 4))
				c2.Write(prefaceBytes(ver))
			}()
			start := time.Now()
			_, err := Connect(context.Background(), c1, nil)
			if !errors.Is(err, secerr.ErrProtocolVersion) {
				t.Fatalf("Connect = %v, want ErrProtocolVersion", err)
			}
			if time.Since(start) > 2*time.Second {
				t.Fatalf("refusal took %v", time.Since(start))
			}
		})
	}
}

// TestServeRefusesWrongVersionTyped runs the real pair: a client whose
// preface carries another version gets the server's preface back before
// the close, so the refusal it sees is ErrProtocolVersion, not a bare EOF.
func TestServeRefusesWrongVersionTyped(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = Serve(ctx, l, echoResponder{}) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(prefaceBytes(ProtocolVersion + 1)); err != nil {
		t.Fatal(err)
	}
	ver, err := readPreface(conn)
	if err != nil || ver != ProtocolVersion {
		t.Fatalf("server's preface: v%d, %v", ver, err)
	}
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("server kept the connection open: %v", err)
	}
}

// TestReadFrameAllocatesWhatArrived: a length prefix is a claim by a peer
// that has proved nothing. Ten bytes claiming a gigabyte must cost about
// ten bytes, for the method name, the body and the reply payload alike.
func TestReadFrameAllocatesWhatArrived(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name string
		in   []byte
		read func(*bufio.Reader) error
	}{
		{"method", cat(claim(maxFrame), []byte("0123456789")),
			func(r *bufio.Reader) error { _, _, err := readFrame(r); return err }},
		{"body", cat(claim(1), []byte("m"), claim(maxFrame), []byte("0123456789")),
			func(r *bufio.Reader) error { _, _, err := readFrame(r); return err }},
		{"reply", cat([]byte{statusOK}, claim(maxFrame), []byte("0123456789")),
			func(r *bufio.Reader) error { _, _, err := readReply(r); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bufio.NewReader(bytes.NewReader(tc.in))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.read(r)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("a truncated frame was accepted")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 4*readChunk {
				t.Fatalf("%d bytes allocated for a %d-byte input", got, len(tc.in))
			}
		})
	}
	// A method name over the cap is refused on its length alone.
	r := bufio.NewReader(bytes.NewReader(cat(claim(maxMethodLen+1), make([]byte, maxMethodLen+1))))
	if _, _, err := readFrame(r); err == nil || !strings.Contains(err.Error(), "oversized method name") {
		t.Fatalf("over-long method name: %v", err)
	}
}

// TestReadPayloadLargeRoundTrip checks the chunked growth reassembles a
// body several chunks long byte for byte.
func TestReadPayloadLargeRoundTrip(t *testing.T) {
	body := make([]byte, 3*readChunk+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	if err := writeFrame(w, []byte("m"), body); err != nil {
		t.Fatal(err)
	}
	method, got, err := readFrame(bufio.NewReader(&b))
	if err != nil || string(method) != "m" || !bytes.Equal(got, body) {
		t.Fatalf("round trip: method %q, %d bytes, %v", method, len(got), err)
	}
}
