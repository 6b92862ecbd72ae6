package cloud

import (
	"context"

	"repro/internal/backoff"
	"repro/internal/secerr"
	"repro/internal/transport"
)

// methodRetryable is the per-method retryability table for the S1→S2
// wire. Every protocol handler on S2 is a stateless crypto
// transform — decrypt, compare, re-blind, re-permute — keyed entirely by
// the request body, with no per-call state on the serving side, so
// re-issuing a round after a link failure cannot corrupt anything: the
// worst case is S2 doing the same work twice. Hello is a pure version
// check and Batch is a bag of items that are themselves retryable.
//
// The table is explicit (rather than "retry everything") so a future
// method with side effects defaults to NON-retryable until someone makes
// its idempotency argument here. See DESIGN.md "Failure model".
var methodRetryable = map[string]bool{
	MethodHello:         true,
	MethodEqBits:        true,
	MethodRecover:       true,
	MethodCompare:       true,
	MethodCompareHidden: true,
	MethodMult:          true,
	MethodDedup:         true,
	MethodFilter:        true,
	MethodBatch:         true,
	// Apply mutates hosted state: a lost reply leaves the caller unable
	// to tell whether the delta landed, so the wire layer must NOT blindly
	// re-issue it. The entry is spelled out (rather than relying on the
	// unknown-method default) so the fail-closed choice is pinned by test
	// and survives anyone "completing" this table mechanically. Retries
	// happen above this layer, guarded by the delta's idempotency key.
	MethodApply: false,
}

// MethodRetryable reports whether a failed round of the method is safe
// to re-issue. Unknown methods are not.
func MethodRetryable(method string) bool {
	return methodRetryable[method]
}

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
// that is safe: the method must be in the retryability table AND the
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
