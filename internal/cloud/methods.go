package cloud

import (
	"context"

	"repro/internal/secerr"
	"repro/internal/transport"
)

// method is what the S1↔S2 wire knows about one method name: how S2
// builds and handles its request, and whether S1 may re-issue it.
type method struct {
	// newRequest returns the empty typed request to decode a body into,
	// and handle runs it on the Server its relation routed to. Both are
	// nil for a method with no relation-scoped handler on S2.
	newRequest func() relationRequest
	handle     func(ctx context.Context, s *Server, req relationRequest) (any, error)
	// retryable says a failed round may be re-issued. Every protocol
	// handler on S2 is a stateless crypto transform — decrypt, compare,
	// re-blind, re-permute — keyed entirely by the request body, so
	// repeating one after a link failure costs S2 the same work twice and
	// nothing else. The zero value is the fail-closed one: a new row is
	// non-retryable until someone makes its idempotency argument here.
	// See DESIGN.md "Failure model".
	retryable bool
}

// methods is the one table of the S1↔S2 method set. Dispatch (serve),
// the retry policy (MethodRetryable) and the fuzz corpus all read it; a
// name that is not a key is an unknown method to each of them.
var methods = map[string]method{
	// Hello is a pure version check and Batch a bag of items that are
	// themselves retryable; serve answers both itself.
	MethodHello: {retryable: true},
	MethodBatch: {retryable: true},
	// The two rows of the hidden-bit gadget share a request, a handler
	// and a reply; they differ only in the test S2 reads the bit with.
	MethodEqBits: {
		newRequest: func() relationRequest { return new(GadgetRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.gadget(ctx, MethodEqBits, req.(*GadgetRequest))
		},
		retryable: true,
	},
	MethodCompare: {
		newRequest: func() relationRequest { return new(CompareRequest) },
		handle: func(_ context.Context, s *Server, req relationRequest) (any, error) {
			return s.compare(req.(*CompareRequest))
		},
		retryable: true,
	},
	MethodCompareHidden: {
		newRequest: func() relationRequest { return new(GadgetRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.gadget(ctx, MethodCompareHidden, req.(*GadgetRequest))
		},
		retryable: true,
	},
	MethodMult: {
		newRequest: func() relationRequest { return new(MultRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.mult(ctx, req.(*MultRequest))
		},
		retryable: true,
	},
	MethodDedup: {
		newRequest: func() relationRequest { return new(DedupRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.dedup(ctx, req.(*DedupRequest))
		},
		retryable: true,
	},
	MethodFilter: {
		newRequest: func() relationRequest { return new(FilterRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.filter(ctx, req.(*FilterRequest))
		},
		retryable: true,
	},
	// Apply mutates hosted state: a lost reply leaves the caller unable
	// to tell whether the delta landed, so the wire layer must NOT blindly
	// re-issue it. The row is spelled out (rather than relying on the
	// unknown-method default) so the fail-closed choice is pinned by test
	// and survives anyone "completing" this table mechanically. Retries
	// happen above this layer, guarded by the delta's idempotency key. It
	// has no handler: the crypto cloud holds no relation state to mutate.
	MethodApply: {retryable: false},
}

// MethodRetryable reports whether a failed round of the method is safe
// to re-issue. Unknown methods are not.
func MethodRetryable(name string) bool { return methods[name].retryable }

// responder is what serve needs from the two transport.Responders of this
// package: a Server answers for itself whatever relation a request names,
// a Service routes on it.
type responder interface {
	hello(req *HelloRequest) (*HelloReply, error)
	// route returns the Server that handles requests for the relation.
	route(relation string) (*Server, error)
}

// serve is one S2 round for either responder: Hello and Batch are
// answered here, every other method is decoded, routed and handled as its
// row of the method table says. A body that does not decode is a
// bad_request; a name with no handler is an unknown_method.
func serve(ctx context.Context, r responder, name string, body []byte) ([]byte, error) {
	switch name {
	case MethodBatch:
		return serveBatch(ctx, r, body)
	case MethodHello:
		var req HelloRequest
		if err := decodeBody(name, body, &req); err != nil {
			return nil, err
		}
		return encodeReply(r.hello(&req))
	}
	m := methods[name]
	if m.handle == nil {
		return nil, secerr.New(secerr.CodeUnknownMethod, "cloud: unknown method %q", name)
	}
	req := m.newRequest()
	if err := decodeBody(name, body, req); err != nil {
		return nil, err
	}
	srv, err := r.route(req.relationID())
	if err != nil {
		return nil, err
	}
	return encodeReply(m.handle(ctx, srv, req))
}

func decodeBody(name string, body []byte, req any) error {
	if err := transport.Decode(body, req); err != nil {
		return secerr.Wrap(secerr.CodeBadRequest, err, "cloud: decoding %s", name)
	}
	return nil
}

func encodeReply(resp any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return transport.Encode(resp)
}
