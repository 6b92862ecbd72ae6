package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/secerr"
	"repro/internal/telemetry"
)

// The S1↔S2 framing: frame-ID multiplexing.
//
// A connection opens with a fixed 4-byte preface in each direction (magic
// + ProtocolVersion); both sides require the other's version to equal
// their own. After the preface, frames carry an explicit frame ID so many
// calls can be in flight on one connection:
//
//	request: uvarint(id) uvarint(len(method)) method uvarint(len(body)) body
//	reply:   uvarint(id) status byte uvarint(len(payload)) payload
//
// Replies may arrive in any order; the caller matches them to requests by
// ID.
//
// Cancellation is per call: a canceled context abandons only its own
// frame — the reply is discarded when it arrives and every other in-flight
// call proceeds undisturbed. Only a genuine connection failure fails the
// remaining in-flight calls, and each of those errors names its own frame.

// muxMagic opens the preface.
var muxMagic = [3]byte{0xF7, 'S', 'K'}

// maxMuxHandlers bounds the handler goroutines ServeConn runs per
// connection, so a peer flooding frames queues instead of exhausting the
// server.
const maxMuxHandlers = 32

// writePreface sends this side's preface: magic plus version.
func writePreface(conn net.Conn) error {
	buf := [4]byte{muxMagic[0], muxMagic[1], muxMagic[2], byte(ProtocolVersion)}
	_, err := conn.Write(buf[:])
	return err
}

// readPreface reads the peer's preface and returns the version it
// carries. It reads byte by byte and fails on the first one that is not
// the magic's, so a peer speaking something else is refused without
// waiting for more of it.
func readPreface(r io.Reader) (version int, err error) {
	var b [1]byte
	for _, want := range muxMagic {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		if b[0] != want {
			return 0, secerr.New(secerr.CodeTransport, "transport: peer did not open with the connection preface")
		}
	}
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int(b[0]), nil
}

// checkPrefaceVersion refuses a peer whose preface carries any version
// but this build's.
func checkPrefaceVersion(peer int) error {
	if peer != ProtocolVersion {
		return secerr.New(secerr.CodeProtocolVersion,
			"transport: peer's preface says wire v%d, this side speaks v%d only", peer, ProtocolVersion)
	}
	return nil
}

// prefaceTimeout bounds the preface exchange when the caller's context
// carries no deadline of its own: a peer that accepts the connection and
// then says nothing would otherwise hold Connect forever.
const prefaceTimeout = 10 * time.Second

// Connect opens the framing over an established connection to a
// responder: it sends the preface, requires the peer's in return, and
// returns a MuxCaller. A peer at another version fails typed
// (ErrProtocolVersion); a peer that never answers fails with a transport
// error when the context (or the built-in preface timeout, if the context
// has no deadline) expires.
func Connect(ctx context.Context, conn net.Conn, stats *Stats) (ConnCaller, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("transport: connect: %w", err)
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, prefaceTimeout)
		defer cancel()
	}
	// Bound the whole exchange — the preface write and the reads — with a
	// connection deadline set up front, not armed only at cancellation:
	// arming on cancel leaves each individual I/O unbounded if the watcher
	// goroutine loses its race with a blocking read, whereas an upfront
	// deadline makes every step of the exchange expire together.
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Now())
		close(fired)
	})
	defer func() {
		if !stop() {
			<-fired
		}
		conn.SetDeadline(time.Time{})
	}()
	if err := writePreface(conn); err != nil {
		return nil, secerr.Wrap(secerr.CodeTransport, err, "sending connection preface")
	}
	ver, err := readPreface(conn)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeTransport, err, "reading the peer's connection preface")
	}
	if err := checkPrefaceVersion(ver); err != nil {
		return nil, err
	}
	return NewMuxCaller(conn, stats), nil
}

// ConnCaller is a Caller bound to a connection it can close.
type ConnCaller interface {
	Caller
	Close() error
}

// muxPending is one in-flight call awaiting its reply frame.
type muxPending struct {
	id     uint64
	method string
	ch     chan muxReply // buffered: the reader never blocks on delivery
}

type muxReply struct {
	status  byte
	payload []byte
	err     error
}

// MuxCaller is the multiplexed Caller: any number of calls may be in
// flight concurrently on one connection, matched to replies by frame ID.
// It is safe for concurrent use. A canceled call abandons only its own
// frame (the connection stays healthy); a connection failure fails every
// in-flight call with an error naming that call's frame.
type MuxCaller struct {
	conn  net.Conn
	w     *bufio.Writer
	wmu   sync.Mutex // serializes frame writes
	stats *Stats

	mu      sync.Mutex
	pending map[uint64]*muxPending
	nextID  uint64
	dead    error // terminal connection error, set once

	closeOnce sync.Once
	closeErr  error
}

// NewMuxCaller wraps an established connection whose peer already
// answered the preface (see Connect) and starts the reply reader.
func NewMuxCaller(conn net.Conn, stats *Stats) *MuxCaller {
	c := &MuxCaller{
		conn:    conn,
		w:       bufio.NewWriter(conn),
		stats:   stats,
		pending: make(map[uint64]*muxPending),
	}
	go c.readLoop()
	return c
}

// readLoop dispatches reply frames to their pending calls until the
// connection dies; unknown IDs (abandoned calls) are discarded.
func (c *MuxCaller) readLoop() {
	r := bufio.NewReader(c.conn)
	for {
		id, status, payload, err := readMuxReply(r)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		p := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if p == nil {
			continue // canceled call; its reply is dropped
		}
		p.ch <- muxReply{status: status, payload: payload}
	}
}

// fail marks the connection dead and fails every in-flight call with an
// error naming its own frame, so callers know exactly which call was cut
// off (and that the link, not their request, is at fault).
func (c *MuxCaller) fail(cause error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = cause
	} else {
		cause = c.dead
	}
	pending := c.pending
	c.pending = make(map[uint64]*muxPending)
	c.mu.Unlock()
	for _, p := range pending {
		p.ch <- muxReply{err: secerr.Wrap(secerr.CodeTransport, cause,
			"%s (frame %d): connection lost", p.method, p.id)}
	}
}

// Call implements Caller. Calls are issued concurrently; cancellation
// abandons only this call's frame and leaves the connection usable.
func (c *MuxCaller) Call(ctx context.Context, method string, req, resp any) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("transport: %s: %w", method, err)
	}
	body, err := Encode(req)
	if err != nil {
		return linkKept{secerr.Wrap(secerr.CodeTransport, err, "encoding %s request", method)}
	}
	start := time.Now()
	c.mu.Lock()
	if c.dead != nil {
		dead := c.dead
		c.mu.Unlock()
		return secerr.Wrap(secerr.CodeTransport, dead, "%s: connection lost", method)
	}
	id := c.nextID
	c.nextID++
	p := &muxPending{id: id, method: method, ch: make(chan muxReply, 1)}
	c.pending[id] = p
	c.mu.Unlock()

	c.wmu.Lock()
	werr := writeMuxFrame(c.w, id, []byte(method), body)
	c.wmu.Unlock()
	if werr != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// A failed frame write leaves the stream mid-frame: the connection
		// is unusable for everyone, so fail the rest too.
		c.fail(werr)
		emitCallerFrame(method, len(body)+len(method), string(secerr.CodeTransport), start)
		return secerr.Wrap(secerr.CodeTransport, werr, "sending %s (frame %d)", method, id)
	}

	select {
	case rep := <-p.ch:
		if rep.err != nil {
			emitCallerFrame(method, len(body)+len(method), string(secerr.CodeOf(rep.err)), start)
			return rep.err
		}
		if c.stats != nil {
			c.stats.Record(method, len(body)+len(method), len(rep.payload)+1)
		}
		if rep.status == statusErr {
			rerr := decodeWireError(rep.payload)
			emitCallerFrame(method, len(body)+len(method)+len(rep.payload)+1, string(secerr.CodeOf(rerr)), start)
			return linkKept{fmt.Errorf("transport: %s: remote: %w", method, rerr)}
		}
		emitCallerFrame(method, len(body)+len(method)+len(rep.payload)+1, "", start)
		if resp == nil {
			return nil
		}
		if err := Decode(rep.payload, resp); err != nil {
			return secerr.Wrap(secerr.CodeTransport, err, "decoding %s response", method)
		}
		return nil
	case <-ctx.Done():
		// Abandon this frame only: deregister so the reader discards the
		// late reply. Every other in-flight call proceeds undisturbed.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		emitCallerFrame(method, len(body)+len(method), "canceled", start)
		return fmt.Errorf("transport: %s (frame %d): %w", method, id, ctx.Err())
	}
}

// linkKept marks a failed call that left its connection healthy: the
// peer's own error reply, or a request that failed to encode and so was
// never sent. The error keeps its code — a peer may report a transport
// failure of its own upstream link — but ReconnectCaller keeps the
// connection.
type linkKept struct{ error }

func (e linkKept) Unwrap() error { return e.error }

// emitCallerFrame records one resolved caller-side frame into the
// telemetry layer's metrics.
func emitCallerFrame(method string, bytes int, code string, start time.Time) {
	telemetry.EmitFrame(telemetry.FrameEvent{
		Side: "caller", Method: method,
		Bytes: bytes, Code: code, Elapsed: time.Since(start),
	})
}

// Close tears the connection down: in-flight calls fail promptly with a
// typed transport error naming their frames. Safe to call more than once.
func (c *MuxCaller) Close() error {
	c.closeOnce.Do(func() {
		c.fail(secerr.New(secerr.CodeTransport, "transport: caller closed"))
		c.closeErr = c.conn.Close()
	})
	return c.closeErr
}

func writeMuxFrame(w *bufio.Writer, id uint64, method, body []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], id)
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	return writeFrame(w, method, body)
}

func readMuxFrame(r *bufio.Reader) (id uint64, method, body []byte, err error) {
	id, err = binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, nil, err
	}
	method, body, err = readFrame(r)
	return id, method, body, err
}

func writeMuxReply(w *bufio.Writer, id uint64, status byte, payload []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], id)
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	return writeReply(w, status, payload)
}

func readMuxReply(r *bufio.Reader) (id uint64, status byte, payload []byte, err error) {
	id, err = binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, nil, err
	}
	status, payload, err = readReply(r)
	return id, status, payload, err
}

// serveMux serves one connection past its preface: every request frame is
// handled on its own goroutine (bounded by maxMuxHandlers) so slow
// handlers never block unrelated frames; replies are written under a
// mutex in completion order.
func serveMux(ctx context.Context, conn net.Conn, r *bufio.Reader, responder Responder) error {
	w := bufio.NewWriter(conn)
	var wmu sync.Mutex
	sem := make(chan struct{}, maxMuxHandlers)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		id, method, body, err := readMuxFrame(r)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			out, herr := responder.Serve(ctx, string(method), body)
			status := byte(statusOK)
			payload := out
			code := ""
			if herr != nil {
				status = statusErr
				code = string(secerr.CodeOf(herr))
				payload = encodeWireError(herr)
			}
			telemetry.EmitFrame(telemetry.FrameEvent{
				Side: "server", Method: string(method),
				Bytes: len(method) + len(body) + len(payload), Code: code, Elapsed: time.Since(start),
			})
			wmu.Lock()
			werr := writeMuxReply(w, id, status, payload)
			wmu.Unlock()
			if werr != nil {
				// The reply stream is mid-frame; close the connection so
				// the read loop (and the peer) observe the failure.
				conn.Close()
			}
		}()
	}
}
