package cloud

import (
	"context"

	"repro/internal/secerr"
	"repro/internal/transport"
)

// method is what the S1↔S2 wire knows about one method name: how S2
// builds and handles its request.
type method struct {
	// newRequest returns the empty typed request to decode a body into,
	// and handle runs it on the Server its relation routed to. Both are
	// nil for a method with no relation-scoped handler on S2.
	newRequest func() relationRequest
	handle     func(ctx context.Context, s *Server, req relationRequest) (any, error)
}

// methods is the one table of the S1↔S2 method set. Dispatch (serve) and
// the fuzz corpus both read it; a name that is not a key is an unknown
// method to each of them.
var methods = map[string]method{
	// Hello proves a relation is served and Batch is a bag of other
	// methods' items; serve answers both itself.
	MethodHello: {},
	MethodBatch: {},
	// The two rows of the hidden-bit gadget share a request, a handler
	// and a reply; they differ only in the test S2 reads the bit with.
	MethodEqBits: {
		newRequest: func() relationRequest { return new(GadgetRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.gadget(ctx, MethodEqBits, req.(*GadgetRequest))
		},
	},
	MethodCompare: {
		newRequest: func() relationRequest { return new(CompareRequest) },
		handle: func(_ context.Context, s *Server, req relationRequest) (any, error) {
			return s.compare(req.(*CompareRequest))
		},
	},
	MethodCompareHidden: {
		newRequest: func() relationRequest { return new(GadgetRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.gadget(ctx, MethodCompareHidden, req.(*GadgetRequest))
		},
	},
	MethodMult: {
		newRequest: func() relationRequest { return new(MultRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.mult(ctx, req.(*MultRequest))
		},
	},
	MethodDedup: {
		newRequest: func() relationRequest { return new(DedupRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.dedup(ctx, req.(*DedupRequest))
		},
	},
	MethodFilter: {
		newRequest: func() relationRequest { return new(FilterRequest) },
		handle: func(ctx context.Context, s *Server, req relationRequest) (any, error) {
			return s.filter(ctx, req.(*FilterRequest))
		},
	},
}

// responder is what serve needs from the two transport.Responders of this
// package: a Server answers for itself whatever relation a request names,
// a Service routes on it.
type responder interface {
	// route returns the Server that handles requests for the relation.
	route(relation string) (*Server, error)
}

// serve is one S2 round for either responder: Hello and Batch are
// answered here, every other method is decoded, routed and handled as its
// row of the method table says. A Hello naming a relation routes it; the
// reply is empty, never a list of the registry, so a peer cannot
// enumerate other tenants. A body that does not decode is a bad_request;
// a name with no handler is an unknown_method.
func serve(ctx context.Context, r responder, name string, body []byte) ([]byte, error) {
	switch name {
	case MethodBatch:
		return serveBatch(ctx, r, body)
	case MethodHello:
		var req HelloRequest
		if err := decodeBody(name, body, &req); err != nil {
			return nil, err
		}
		if req.Relation != "" {
			if _, err := r.route(req.Relation); err != nil {
				return nil, err
			}
		}
		return transport.Encode(HelloReply{})
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
