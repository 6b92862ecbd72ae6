package cloud

import (
	"context"

	"repro/internal/backoff"
	"repro/internal/secerr"
	"repro/internal/transport"
)

// retryableFailure decides whether a failed round is worth repeating at
// all: link failures (the round may never have reached S2, or its reply
// was lost) and overload sheds (S2 asked us to back off) are; errors the
// peer actually computed — invalid token, unknown relation, bad request
// — would only fail identically again.
func retryableFailure(err error) bool {
	switch secerr.CodeOf(err) {
	case secerr.CodeTransport, secerr.CodeOverloaded:
		return true
	default:
		return false
	}
}

// RetryCaller re-issues failed protocol rounds when — and only when —
// that is safe: the method's row in the method table must say retryable AND the
// failure must be link-level or an overload shed. It composes with
// ReconnectCaller underneath (which re-dials and re-runs Hello but never
// repeats a round): this layer holds the protocol knowledge of what may
// be repeated, that layer holds the link knowledge of how to get a
// connection back.
type RetryCaller struct {
	inner  transport.Caller
	policy backoff.Policy
}

// NewRetryCaller wraps inner with the retry policy (zero value = package
// defaults).
func NewRetryCaller(inner transport.Caller, policy backoff.Policy) *RetryCaller {
	return &RetryCaller{inner: inner, policy: policy}
}

// Call implements transport.Caller. resp is decoded at most once (on the
// single successful attempt), so partially failed attempts never leave a
// half-written response behind.
func (c *RetryCaller) Call(ctx context.Context, method string, req, resp any) error {
	if !MethodRetryable(method) {
		return c.inner.Call(ctx, method, req, resp)
	}
	return backoff.Retry(ctx, method, c.policy, retryableFailure, func(ctx context.Context) error {
		return c.inner.Call(ctx, method, req, resp)
	})
}

// Close closes the wrapped caller when it is closeable.
func (c *RetryCaller) Close() error {
	if cc, ok := c.inner.(interface{ Close() error }); ok {
		return cc.Close()
	}
	return nil
}
