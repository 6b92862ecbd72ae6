// Package transport carries the request/response rounds between the data
// cloud S1 and the crypto cloud S2 (Section 3.2's architecture). Every
// protocol round is one Call. The package provides:
//
//   - a Caller/Responder pair that serializes every message (Encode), so
//     the exact wire bytes are counted even for the in-process transport;
//   - Stats, the per-method byte/round accounting that regenerates the
//     paper's communication results (Table 3, Figure 13);
//   - a LinkModel that converts counted traffic into estimated latency
//     under an assumed bandwidth/RTT, mirroring Section 11.2.5's 50 Mbps
//     analysis;
//   - a framed TCP/pipe transport for running S1 and S2 as genuinely
//     separate processes.
//
// The wire protocol has one version (ProtocolVersion): a connection opens
// with a preface carrying it, and a peer at any other version is refused
// typed before any frame is read. Handler errors cross the wire as
// structured (code, message) pairs so the typed error taxonomy of
// internal/secerr survives serialization: errors.Is against the secerr
// sentinels behaves identically in-process and over TCP.
package transport

import (
	"bytes"
	"context"
	"encoding"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/secerr"
)

// ProtocolVersion is the one wire version of this build, checked once per
// connection at the preface. It versions every plane that rides the
// framing — S1↔S2, querier↔data cloud and front door↔member: the framing
// (preface, frame-ID multiplexing with per-call cancellation; see mux.go),
// each plane's method set including the batch envelope, the
// request/response encodings and the error encoding. Both ends of a
// connection must carry exactly this value. v10: the three Hellos lost
// their versions. v11: the client plane's query options lost the batch
// depth and the depth cap. v12: the S1↔S2 Dedup request lost its mode.
const ProtocolVersion = 12

// Responder is the server side: S2 handles one method call. The context
// is the per-call (or per-connection) context; handlers use it to bound
// their own parallel fan-out.
type Responder interface {
	Serve(ctx context.Context, method string, body []byte) ([]byte, error)
}

// Caller is the client side: S1 issues one protocol round. Cancellation
// is cooperative and bounded by one round: a canceled context stops the
// call before it is issued, and transports with deadline support also
// bound the in-flight round.
type Caller interface {
	Call(ctx context.Context, method string, req, resp any) error
}

// MethodStats aggregates traffic for a single method.
type MethodStats struct {
	Calls         int64
	BytesSent     int64
	BytesReceived int64
}

// Stats aggregates traffic over a link. All methods are safe for
// concurrent use.
type Stats struct {
	mu       sync.Mutex
	total    MethodStats
	byMethod map[string]*MethodStats
}

// NewStats returns an empty counter set.
func NewStats() *Stats {
	return &Stats{byMethod: make(map[string]*MethodStats)}
}

// Record adds one round of the given method with the given payload sizes.
func (s *Stats) Record(method string, sent, received int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total.Calls++
	s.total.BytesSent += int64(sent)
	s.total.BytesReceived += int64(received)
	m := s.byMethod[method]
	if m == nil {
		m = &MethodStats{}
		s.byMethod[method] = m
	}
	m.Calls++
	m.BytesSent += int64(sent)
	m.BytesReceived += int64(received)
}

// Total returns the aggregate counters.
func (s *Stats) Total() MethodStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Rounds returns the number of request/response rounds recorded.
func (s *Stats) Rounds() int64 { return s.Total().Calls }

// Bytes returns total bytes in both directions.
func (s *Stats) Bytes() int64 {
	t := s.Total()
	return t.BytesSent + t.BytesReceived
}

// Method returns a copy of the counters for one method.
func (s *Stats) Method(name string) MethodStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.byMethod[name]; m != nil {
		return *m
	}
	return MethodStats{}
}

// Methods returns the method names seen, sorted.
func (s *Stats) Methods() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byMethod))
	for k := range s.byMethod {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total = MethodStats{}
	s.byMethod = make(map[string]*MethodStats)
}

// Snapshot returns a printable summary.
func (s *Stats) Snapshot() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b bytes.Buffer
	fmt.Fprintf(&b, "rounds=%d sent=%dB recv=%dB", s.total.Calls, s.total.BytesSent, s.total.BytesReceived)
	return b.String()
}

// LinkModel estimates wall-clock latency for counted traffic, the way
// Section 11.2.5 derives latency from bandwidth ("assuming a standard
// 50 Mbps LAN setting").
type LinkModel struct {
	BandwidthBitsPerSec float64
	RTT                 time.Duration
}

// LAN50Mbps is the link the paper assumes for Table 3.
func LAN50Mbps() LinkModel {
	return LinkModel{BandwidthBitsPerSec: 50e6, RTT: time.Millisecond}
}

// Latency returns the modeled network time for the recorded traffic.
func (l LinkModel) Latency(s *Stats) time.Duration {
	t := s.Total()
	if l.BandwidthBitsPerSec <= 0 {
		return time.Duration(t.Calls) * l.RTT
	}
	bits := float64(t.BytesSent+t.BytesReceived) * 8
	seconds := bits / l.BandwidthBitsPerSec
	return time.Duration(seconds*float64(time.Second)) + time.Duration(t.Calls)*l.RTT
}

// Local is the in-process Caller: it serializes both directions and
// dispatches to the Responder directly. It counts a round as MuxCaller
// does — method name and body out, status byte and payload (an error's
// encoded (code, message) pair included) back — so the byte counts are
// what the same call costs on a connection, frame IDs and length prefixes
// aside.
type Local struct {
	responder Responder
	stats     *Stats
}

// NewLocal wires a Caller to a Responder in the same process. stats may be
// nil to disable accounting.
func NewLocal(r Responder, stats *Stats) *Local {
	return &Local{responder: r, stats: stats}
}

// Call implements Caller.
func (l *Local) Call(ctx context.Context, method string, req, resp any) error {
	if l.responder == nil {
		return errors.New("transport: local caller has no responder")
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("transport: %s: %w", method, err)
	}
	body, err := Encode(req)
	if err != nil {
		return secerr.Wrap(secerr.CodeTransport, err, "encoding %s request", method)
	}
	out, err := l.responder.Serve(ctx, method, body)
	if l.stats != nil {
		payload := out
		if err != nil {
			payload = encodeWireError(err)
		}
		l.stats.Record(method, len(body)+len(method), len(payload)+1)
	}
	if err != nil {
		return fmt.Errorf("transport: %s: %w", method, err)
	}
	if resp == nil {
		return nil
	}
	if err := Decode(out, resp); err != nil {
		return secerr.Wrap(secerr.CodeTransport, err, "decoding %s response", method)
	}
	return nil
}

// Encode serializes a message. Every message is its own
// encoding.BinaryMarshaler, written with internal/wire; a value that is
// not has no encoding.
func Encode(v any) ([]byte, error) {
	m, ok := v.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("transport: %T has no binary encoding", v)
	}
	return m.MarshalBinary()
}

// Decode is Encode's inverse into v, a pointer to a message.
func Decode(b []byte, v any) error {
	u, ok := v.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("transport: %T has no binary decoding", v)
	}
	return u.UnmarshalBinary(b)
}
