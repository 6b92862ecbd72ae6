package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/secerr"
	"repro/internal/wire"
)

// Frame payloads (the frame-ID envelope around them is in mux.go):
//
//	request: uvarint(len(method)) method uvarint(len(body)) body
//	reply:   status byte (0 ok, 1 error) uvarint(len(payload)) payload
//
// where an error payload is the encoding of wireError, carrying the
// structured (code, message) pair of the typed error taxonomy.

const (
	statusOK  = 0
	statusErr = 1
)

// maxFrame bounds a single body or reply payload; maxMethodLen bounds a
// method name. Both lengths arrive from a peer that has proved nothing
// yet, so neither is trusted for an allocation: see readPayload.
const (
	maxFrame     = 1 << 30
	maxMethodLen = 256
)

// readChunk is the most readPayload allocates ahead of the bytes that
// have actually arrived.
const readChunk = 64 << 10

// wireError is the serialized form of a handler error: the secerr code
// plus the rendered message. Wrapped causes stay on the serving side.
type wireError struct {
	Code string
	Msg  string
}

// MarshalBinary: string(Code) string(Msg).
func (e wireError) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(e.Code)
	w.String(e.Msg)
	return w.Finish()
}

func (e *wireError) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	e.Code, e.Msg = r.String("Code"), r.String("Msg")
	return r.Finish()
}

// encodeWireError renders a handler error as an error reply's payload.
func encodeWireError(err error) []byte {
	payload, _ := Encode(wireError{Code: string(secerr.CodeOf(err)), Msg: err.Error()}) // cannot fail
	return payload
}

// decodeWireError reconstructs the peer's structured error. Payloads that
// do not decode degrade to an internal error carrying the raw bytes as
// the message.
func decodeWireError(payload []byte) error {
	var we wireError
	if err := Decode(payload, &we); err != nil {
		return secerr.FromWire(string(secerr.CodeInternal), string(payload))
	}
	return secerr.FromWire(we.Code, we.Msg)
}

func writeFrame(w *bufio.Writer, method, body []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(method)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := w.Write(method); err != nil {
		return err
	}
	n = binary.PutUvarint(lenBuf[:], uint64(len(body)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

// readPayload reads one length-prefixed byte string of at most limit
// bytes. The buffer grows as bytes arrive, readChunk at a time, so what a
// connection can make this side allocate is bounded by what it has
// actually sent — not by the length it claims.
func readPayload(r *bufio.Reader, limit uint64, what string) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("transport: oversized %s (%d bytes, limit %d)", what, n, limit)
	}
	buf := make([]byte, 0, min(n, readChunk))
	for uint64(len(buf)) < n {
		have, step := len(buf), int(min(n-uint64(len(buf)), readChunk))
		buf = slices.Grow(buf, step)[:have+step]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func readFrame(r *bufio.Reader) (method, body []byte, err error) {
	if method, err = readPayload(r, maxMethodLen, "method name"); err != nil {
		return nil, nil, err
	}
	if body, err = readPayload(r, maxFrame, "request body"); err != nil {
		return nil, nil, err
	}
	return method, body, nil
}

func writeReply(w *bufio.Writer, status byte, payload []byte) error {
	if err := w.WriteByte(status); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

func readReply(r *bufio.Reader) (status byte, payload []byte, err error) {
	if status, err = r.ReadByte(); err != nil {
		return 0, nil, err
	}
	payload, err = readPayload(r, maxFrame, "reply payload")
	return status, payload, err
}

// ServeConn serves a single connection until it closes, the context is
// canceled, or a transport error occurs. Handler errors are reported to
// the peer as structured (code, message) pairs, not returned.
//
// The connection must open with the preface at this build's
// ProtocolVersion. A peer that opens with anything else is refused on its
// first wrong byte, before any frame is read; a peer that sends the magic
// with another version is answered with this side's preface first, so its
// Connect fails typed (ErrProtocolVersion) instead of seeing a bare close.
func ServeConn(ctx context.Context, conn net.Conn, responder Responder) error {
	r := bufio.NewReader(conn)
	ver, err := readPreface(r)
	if err != nil {
		return err
	}
	if err := writePreface(conn); err != nil {
		return err
	}
	if err := checkPrefaceVersion(ver); err != nil {
		return err
	}
	return serveMux(ctx, conn, r, responder)
}

// Serve accepts connections from the listener and serves each in its own
// goroutine until the listener closes or the context is canceled (which
// also closes the listener and every open connection).
func Serve(ctx context.Context, l net.Listener, responder Responder) error {
	return ServeWith(ctx, l, responder, ServeOptions{})
}

// ServeOptions tunes ServeWith's shutdown behavior.
type ServeOptions struct {
	// Drain, when positive, makes cancellation graceful: the listener
	// closes immediately and no new frames are read, but handlers already
	// in flight keep running (on a context that survives the
	// cancellation) and flush their replies for up to Drain before the
	// remaining connections are aborted. Zero keeps the immediate-abort
	// behavior: cancellation closes every connection at once.
	Drain time.Duration
	// NewResponder, when set, builds a fresh Responder per accepted
	// connection instead of sharing the one passed to ServeWith — for
	// protocols that carry per-connection state (e.g. the client wire's
	// announced tenant identity).
	NewResponder func() Responder
}

// ServeWith is Serve with explicit shutdown options. With a drain window
// configured, cancellation walks a three-step ladder: stop accepting,
// stop reading new frames (a read deadline interrupts the frame loops
// without touching in-flight handlers, whose replies still flush —
// serveMux waits for its handlers before the connection goroutine
// closes the conn), and finally — when the window closes — cancel the
// surviving handlers and tear the connections down. On a canceled
// context ServeWith returns only after every connection goroutine has
// finished, so callers know in-flight work has either completed or been
// aborted by the time it returns.
func ServeWith(ctx context.Context, l net.Listener, responder Responder, opts ServeOptions) error {
	// Handlers run on a context that survives cancellation when draining,
	// so cancellation stops frame intake without aborting work already
	// admitted; the drain timer (or ServeWith's return) cancels them.
	handlerCtx := ctx
	cancelHandlers := context.CancelFunc(func() {})
	if opts.Drain > 0 {
		handlerCtx, cancelHandlers = context.WithCancel(context.WithoutCancel(ctx))
	}
	defer cancelHandlers()

	var (
		mu         sync.Mutex
		conns      = map[net.Conn]struct{}{}
		drainTimer *time.Timer
		wg         sync.WaitGroup
	)
	closeAll := func() {
		mu.Lock()
		defer mu.Unlock()
		for conn := range conns {
			conn.Close()
		}
	}
	stop := context.AfterFunc(ctx, func() {
		l.Close()
		if opts.Drain <= 0 {
			closeAll()
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for conn := range conns {
			conn.SetReadDeadline(time.Now())
		}
		drainTimer = time.AfterFunc(opts.Drain, func() {
			cancelHandlers()
			closeAll()
		})
	})
	defer stop()
	defer func() {
		if ctx.Err() != nil {
			// Bounded: read deadlines have stopped frame intake and the
			// drain timer aborts whatever outlives the window.
			wg.Wait()
		}
		mu.Lock()
		if drainTimer != nil {
			drainTimer.Stop()
		}
		mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		if ctx.Err() != nil {
			// Lost the race with the cancellation walk: apply its
			// read-deadline step here so this conn drains too.
			conn.SetReadDeadline(time.Now())
		}
		mu.Unlock()
		connResponder := responder
		if opts.NewResponder != nil {
			connResponder = opts.NewResponder()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				conn.Close()
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
			_ = ServeConn(handlerCtx, conn, connResponder)
		}()
	}
}
