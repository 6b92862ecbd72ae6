package sectopk

import "repro/internal/secerr"

// Typed errors. Each carries a stable machine-readable code that survives
// the S1↔S2 wire, so errors.Is classifies failures identically whether
// they were raised in-process or reported by a remote peer.
var (
	// ErrInvalidToken marks a query token that fails validation against
	// the relation it targets.
	ErrInvalidToken error = secerr.ErrInvalidToken
	// ErrUnknownRelation marks an operation naming a relation the serving
	// party has not registered or hosted.
	ErrUnknownRelation error = secerr.ErrUnknownRelation
	// ErrRelationExists marks a Register/Host attempt for an ID already
	// in use.
	ErrRelationExists error = secerr.ErrRelationExists
	// ErrProtocolVersion marks a connection between peers built at
	// different wire protocol versions, refused at its preface.
	ErrProtocolVersion error = secerr.ErrProtocolVersion
	// ErrBadRequest marks a structurally invalid protocol request (the
	// crypto cloud's verdict on malformed or hostile input).
	ErrBadRequest error = secerr.ErrBadRequest
	// ErrTransport marks a failure of the link itself, as opposed to an
	// error reported by the peer.
	ErrTransport error = secerr.ErrTransport
	// ErrOverloaded marks a request shed by an admission bound: the data
	// cloud is at its configured session limit (or draining toward
	// shutdown) and refused the work instead of queueing it. Overloaded
	// requests are safe to retry after backing off; a Client (Dial) does
	// so automatically under its retry policy.
	ErrOverloaded error = secerr.ErrOverloaded
	// ErrRelationStale marks an operation pinned to a relation epoch that
	// is no longer the hosted one: a concurrent Apply or Compact advanced
	// the relation. The caller must refresh its view (epoch, positions)
	// and retry deliberately — never blindly, which is why the failure is
	// typed rather than retried by any recovery layer.
	ErrRelationStale error = secerr.ErrRelationStale
	// ErrUnavailable marks a cluster member (or other required peer) that
	// could not be reached mid-operation. It wraps the underlying
	// transport failure and names the member, so errors.Is matches both
	// ErrUnavailable and ErrTransport on a dead-node failure.
	ErrUnavailable error = secerr.ErrUnavailable
)
