// Package secerr defines the typed error taxonomy shared by every layer
// of the system and by the public sectopk facade. Each error carries a
// stable machine-readable Code that survives the S1↔S2 wire: the
// transport serializes the code alongside the message, and the receiving
// side reconstructs an *Error with the same code, so errors.Is against
// the package sentinels works identically in-process and across a TCP
// link (see DESIGN.md "Wire versioning and error codes").
package secerr

import (
	"errors"
	"fmt"
)

// Code is a stable machine-readable error class. Codes are part of the
// wire protocol: once shipped, a code's meaning never changes.
type Code string

const (
	// CodeInvalidToken marks a query token that fails validation against
	// the relation it targets (bad k, out-of-range list positions, ...).
	CodeInvalidToken Code = "invalid_token"
	// CodeUnknownRelation marks a request naming a relation the serving
	// party has not registered.
	CodeUnknownRelation Code = "unknown_relation"
	// CodeRelationExists marks a registration attempt for an already
	// registered relation ID.
	CodeRelationExists Code = "relation_exists"
	// CodeProtocolVersion marks a Hello handshake between peers speaking
	// incompatible wire protocol versions.
	CodeProtocolVersion Code = "protocol_version"
	// CodeUnknownMethod marks a request for a method the responder does
	// not implement.
	CodeUnknownMethod Code = "unknown_method"
	// CodeBadRequest marks a structurally invalid request body
	// (undecodable gob, nil ciphertexts, mismatched lengths, ...).
	CodeBadRequest Code = "bad_request"
	// CodeTransport marks a failure of the link itself (connection loss,
	// framing errors) as opposed to an error reported by the peer.
	CodeTransport Code = "transport"
	// CodeOverloaded marks a request shed by an admission bound: the
	// serving party is at capacity (or draining toward shutdown) and
	// refused the work instead of queueing it. Overloaded failures are
	// safe to retry after backing off.
	CodeOverloaded Code = "overloaded"
	// CodeRelationStale marks an operation pinned to a relation epoch
	// that is no longer the hosted one: a concurrent Apply or Compact
	// advanced the relation. The caller must refresh its view of the
	// relation (epoch, token) and retry deliberately — the failure is
	// fail-fast by design, never retried blindly.
	CodeRelationStale Code = "relation_stale"
	// CodeUnavailable marks a required peer that cannot be reached: a
	// cluster member whose link failed mid-query, or a forwarding target
	// that is down. It always wraps the underlying transport failure and
	// names the peer, so a half-up cluster is diagnosable from the
	// message alone.
	CodeUnavailable Code = "unavailable"
	// CodeInternal marks any other server-side failure.
	CodeInternal Code = "internal"
)

// Sentinel errors, one per code. Use errors.Is(err, secerr.ErrX) to test
// for a class; matching is by code, so errors reconstructed from the wire
// satisfy Is against these sentinels too.
var (
	ErrInvalidToken    = &Error{Code: CodeInvalidToken, Msg: "invalid query token"}
	ErrUnknownRelation = &Error{Code: CodeUnknownRelation, Msg: "unknown relation"}
	ErrRelationExists  = &Error{Code: CodeRelationExists, Msg: "relation already registered"}
	ErrProtocolVersion = &Error{Code: CodeProtocolVersion, Msg: "incompatible wire protocol version"}
	ErrUnknownMethod   = &Error{Code: CodeUnknownMethod, Msg: "unknown method"}
	ErrBadRequest      = &Error{Code: CodeBadRequest, Msg: "malformed request"}
	ErrTransport       = &Error{Code: CodeTransport, Msg: "transport failure"}
	ErrOverloaded      = &Error{Code: CodeOverloaded, Msg: "overloaded"}
	ErrRelationStale   = &Error{Code: CodeRelationStale, Msg: "relation epoch is stale"}
	ErrUnavailable     = &Error{Code: CodeUnavailable, Msg: "peer unavailable"}
	ErrInternal        = &Error{Code: CodeInternal, Msg: "internal error"}
)

// Error is a coded error. The zero Msg renders as the code itself.
type Error struct {
	Code Code
	Msg  string
	// Err is the wrapped cause. It is local-only: the wire carries just
	// Code and Msg.
	Err error
}

// Error implements the error interface.
func (e *Error) Error() string {
	msg := e.Msg
	if msg == "" {
		msg = string(e.Code)
	}
	if e.Err != nil {
		return fmt.Sprintf("%s: %v", msg, e.Err)
	}
	return msg
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *Error) Unwrap() error { return e.Err }

// Is reports whether target is a coded error of the same class, making
// errors.Is(err, sentinel) match on Code rather than pointer identity.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// New builds a coded error with a formatted message.
func New(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Wrap attaches a code and context message to an underlying cause. A nil
// cause yields a plain coded error.
func Wrap(code Code, err error, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...), Err: err}
}

// CodeOf extracts the code carried by err, or CodeInternal when err has
// no coded error in its chain. A nil error has no code ("").
func CodeOf(err error) Code {
	if err == nil {
		return ""
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return CodeInternal
}

// FromWire reconstructs the error a peer reported: a coded error whose
// code round-trips (errors.Is against the sentinels keeps working) and
// whose message is the peer's rendered message.
func FromWire(code, msg string) *Error {
	c := Code(code)
	if c == "" {
		c = CodeInternal
	}
	return &Error{Code: c, Msg: msg}
}
