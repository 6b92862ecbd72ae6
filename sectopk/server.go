package sectopk

import (
	"bytes"
	"context"
	"net"
	"sync"

	"repro/internal/cloud"
	"repro/internal/secerr"
	"repro/internal/secio"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Client wire protocol (querier ↔ data cloud).
//
// The client plane rides on the same framing stack as the S1↔S2 wire
// (transport preface, then frame-ID multiplexed frames), so one querier
// connection keeps any number of requests in flight, replies match by
// frame ID, and a canceled request abandons only its own frame. On top
// of that framing the client plane defines its own method set; its
// version is the framing's, transport.ProtocolVersion, checked once at
// the connection preface:
//
//	Client.Hello    {Tenant}              -> {}
//	Client.Execute  {Relation, Workload,  -> {Answer, span fields}
//	                 Token, Options}
//	Client.Apply    {Relation, Delta}     -> {Epoch}
//	Client.Compact  {Relation}            -> {Epoch}
//
// Every request and reply is its own internal/wire message; the layout
// is the comment on its MarshalBinary. Token, Answer, and Delta are
// secio streams — byte-identical to the on-disk persistence
// formats — of the kind selected by Workload ("topk", "join", "knn") or,
// for Apply, the "delta" kind. Handler errors cross the wire as the
// structured (code, message) pairs of internal/secerr, so errors.Is
// against the sectopk.Err* sentinels behaves identically for remote and
// in-process callers. QoS admission buckets a connection's requests
// under the Hello's tenant ("" is the default tenant). See DESIGN.md
// "Client wire" and "Telemetry and QoS".
const (
	methodClientHello   = "Client.Hello"
	methodClientExecute = "Client.Execute"
	// methodClientApply shares its suffix with the S1→S2 wire's
	// MethodApply: both name the same side-effecting operation.
	methodClientApply   = "Client." + cloud.MethodApply
	methodClientCompact = "Client.Compact"
)

// clientHello announces the tenant the querier identifies as (""
// buckets the connection as the default tenant).
type clientHello struct {
	Tenant string
}

// MarshalBinary: string(Tenant).
func (m clientHello) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Tenant)
	return w.Finish()
}

func (m *clientHello) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Tenant = r.String("Tenant")
	return r.Finish()
}

// clientHelloReply acknowledges the Hello; it carries nothing.
type clientHelloReply = wire.Empty

// wireQueryOptions flattens a query configuration for the wire: signed
// Mode, then uvarint(Epoch). Zero values mean "default", matching the
// in-process QueryOption semantics.
type wireQueryOptions struct {
	Mode int
	// Epoch pins the query to one relation epoch (0 = unpinned).
	Epoch uint64
}

// wire flattens a resolved query config.
func (q queryConfig) wire() wireQueryOptions {
	return wireQueryOptions{Mode: int(q.mode), Epoch: q.epoch}
}

// queryConfigFromWire rebuilds a query config from its wire form. The
// mode is whatever integer the peer sent; DataCloud.execute validates it.
func queryConfigFromWire(w wireQueryOptions) queryConfig {
	return queryConfig{mode: Mode(w.Mode), epoch: w.Epoch}
}

// clientExecuteRequest carries one query: the relation ID, the workload
// discriminator, the workload's token as a secio stream, and the query
// options. A retried query arrives as a second run of its token, which
// is what S1 sees.
type clientExecuteRequest struct {
	Relation string
	Workload string
	Token    []byte
	Options  wireQueryOptions
}

// MarshalBinary: string(Relation) string(Workload) bytes(Token), the
// options.
func (m clientExecuteRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	w.String(m.Workload)
	w.Bytes(m.Token)
	w.Varint(int64(m.Options.Mode))
	w.Uvarint(m.Options.Epoch)
	return w.Finish()
}

func (m *clientExecuteRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Relation, m.Workload, m.Token = r.String("Relation"), r.String("Workload"), r.Bytes("Token")
	m.Options = wireQueryOptions{Mode: int(r.Varint()), Epoch: r.Uvarint()}
	return r.Finish()
}

// clientExecuteReply carries the encrypted answer as a secio stream of
// the workload's result kind, plus the server-side span fields the
// client merges into Answer.Traffic.
type clientExecuteReply struct {
	Answer         []byte
	S2Calls        int64
	FanOut         int
	MergeFallbacks int64
	Epoch          uint64
}

// MarshalBinary: bytes(Answer) signed(S2Calls) uvarint(FanOut)
// signed(MergeFallbacks) uvarint(Epoch).
func (m clientExecuteReply) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Bytes(m.Answer)
	w.Varint(m.S2Calls)
	w.Int("FanOut", m.FanOut)
	w.Varint(m.MergeFallbacks)
	w.Uvarint(m.Epoch)
	return w.Finish()
}

func (m *clientExecuteReply) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Answer, m.S2Calls, m.FanOut = r.Bytes("Answer"), r.Varint(), r.Int("FanOut")
	m.MergeFallbacks, m.Epoch = r.Varint(), r.Uvarint()
	return r.Finish()
}

// clientApplyRequest carries one mutation delta as a secio "delta"
// stream. The delta's embedded idempotency key is what makes retries of
// this side-effecting call safe — the server's applied-table replays
// the recorded epoch instead of reapplying.
type clientApplyRequest struct {
	Relation string
	Delta    []byte
}

// MarshalBinary: string(Relation) bytes(Delta).
func (m clientApplyRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	w.Bytes(m.Delta)
	return w.Finish()
}

func (m *clientApplyRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Relation, m.Delta = r.String("Relation"), r.Bytes("Delta")
	return r.Finish()
}

// clientApplyReply reports the epoch the application produced (or had
// already produced, for an idempotent replay).
type clientApplyReply struct {
	Epoch uint64
}

// MarshalBinary: uvarint(Epoch).
func (m clientApplyReply) MarshalBinary() ([]byte, error) { return uvarintFrame(m.Epoch) }

func (m *clientApplyReply) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Epoch = r.Uvarint()
	return r.Finish()
}

// uvarintFrame encodes a one-integer reply.
func uvarintFrame(v uint64) ([]byte, error) {
	var w wire.Writer
	w.Uvarint(v)
	return w.Finish()
}

// clientCompactRequest asks the data cloud to fold a relation's
// tombstones; the reply is a clientApplyReply with the new epoch.
type clientCompactRequest struct {
	Relation string
}

// MarshalBinary: string(Relation).
func (m clientCompactRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	return w.Finish()
}

func (m *clientCompactRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Relation = r.String("Relation")
	return r.Finish()
}

// ServeClients accepts querier connections on the listener and serves
// the client wire protocol until the listener closes or the context is
// canceled. Each connection is served on its own goroutine and
// multiplexes any number of in-flight requests; every admitted request
// executes through the same unified path as in-process callers, gated
// by the data cloud's admission bound (WithSessionLimit — which sheds
// overflow with ErrOverloaded — defaulting to a GOMAXPROCS-sized
// queueing gate for the remote plane), so an open listener never admits
// unbounded concurrent work.
// Handler errors are reported to the peer as structured (code, message)
// pairs, never by tearing the serving loop down.
//
// Cancellation honors WithDrainTimeout: with a drain window configured,
// a canceled context stops accepting connections and new frames but
// lets in-flight requests finish (and their replies flush) for up to
// the window before aborting them; without one, everything aborts
// immediately.
func (d *DataCloud) ServeClients(ctx context.Context, l net.Listener) error {
	return transport.ServeWith(ctx, l, nil, transport.ServeOptions{
		Drain: d.cfg.drainTimeout,
		// Each connection gets its own responder: the tenant the peer
		// announces in its Hello is per-connection protocol state.
		NewResponder: func() transport.Responder {
			return &clientResponder{dc: d}
		},
	})
}

// clientResponder handles client-plane methods for ONE connection: the
// tenant announced in the connection's Hello is held here and stamped
// onto every request the connection executes.
type clientResponder struct {
	dc *DataCloud

	mu     sync.Mutex
	tenant string
}

// setTenant records the Hello-announced tenant (a reconnecting peer
// re-runs its Hello on the fresh connection's responder).
func (r *clientResponder) setTenant(tenant string) {
	r.mu.Lock()
	r.tenant = tenant
	r.mu.Unlock()
}

// tenantName returns the connection's announced tenant ("" until a
// Hello names one).
func (r *clientResponder) tenantName() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenant
}

// Serve implements transport.Responder.
func (r *clientResponder) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	switch method {
	case methodClientHello:
		var req clientHello
		if err := transport.Decode(body, &req); err != nil {
			return nil, secerr.Wrap(secerr.CodeBadRequest, err, "sectopk: decoding client hello")
		}
		r.setTenant(req.Tenant)
		return transport.Encode(clientHelloReply{})
	case methodClientExecute:
		var wreq clientExecuteRequest
		if err := transport.Decode(body, &wreq); err != nil {
			return nil, secerr.Wrap(secerr.CodeBadRequest, err, "sectopk: decoding execute request")
		}
		req, err := decodeWireRequest(&wreq)
		if err != nil {
			return nil, err
		}
		cfg := queryConfigFromWire(wreq.Options)
		cfg.tenant = r.tenantName()
		ans, err := r.dc.execute(ctx, req, cfg, r.dc.clientGate)
		if err != nil {
			return nil, err
		}
		payload, err := encodeWireAnswer(ans)
		if err != nil {
			return nil, err
		}
		return transport.Encode(clientExecuteReply{
			Answer:         payload,
			S2Calls:        ans.Traffic.S2Calls,
			FanOut:         ans.Traffic.FanOut,
			MergeFallbacks: ans.Traffic.MergeFallbacks,
			Epoch:          ans.Traffic.Epoch,
		})
	case methodClientApply:
		var wreq clientApplyRequest
		if err := transport.Decode(body, &wreq); err != nil {
			return nil, secerr.Wrap(secerr.CodeBadRequest, err, "sectopk: decoding apply request")
		}
		delta, _, err := secio.ReadDelta(bytes.NewReader(wreq.Delta))
		if err != nil {
			return nil, secerr.Wrap(secerr.CodeBadRequest, err, "sectopk: decoding delta")
		}
		epoch, err := r.dc.applyDelta(ctx, wreq.Relation, delta)
		if err != nil {
			return nil, err
		}
		return transport.Encode(clientApplyReply{Epoch: epoch})
	case methodClientCompact:
		var wreq clientCompactRequest
		if err := transport.Decode(body, &wreq); err != nil {
			return nil, secerr.Wrap(secerr.CodeBadRequest, err, "sectopk: decoding compact request")
		}
		epoch, err := r.dc.Compact(ctx, wreq.Relation)
		if err != nil {
			return nil, err
		}
		return transport.Encode(clientApplyReply{Epoch: epoch})
	default:
		return nil, secerr.New(secerr.CodeUnknownMethod, "sectopk: unknown client method %q", method)
	}
}

// decodeWireRequest rebuilds a Request from its wire form; the token
// payload is parsed with the persistence codec of the request's
// workload. Malformed payloads fail with ErrInvalidToken, unknown
// workloads with ErrBadRequest.
func decodeWireRequest(wreq *clientExecuteRequest) (Request, error) {
	r := bytes.NewReader(wreq.Token)
	switch Workload(wreq.Workload) {
	case WorkloadTopK:
		tk, err := secio.ReadToken(r)
		if err != nil {
			return Request{}, secerr.Wrap(secerr.CodeInvalidToken, err, "sectopk: decoding top-k token")
		}
		return Request{Relation: wreq.Relation, TopK: &Token{tk: tk}}, nil
	case WorkloadJoin:
		tk, err := secio.ReadJoinToken(r)
		if err != nil {
			return Request{}, secerr.Wrap(secerr.CodeInvalidToken, err, "sectopk: decoding join token")
		}
		return Request{Relation: wreq.Relation, Join: &JoinToken{tk: tk}}, nil
	case WorkloadKNN:
		point, k, err := secio.ReadKNNToken(r)
		if err != nil {
			return Request{}, secerr.Wrap(secerr.CodeInvalidToken, err, "sectopk: decoding kNN token")
		}
		return Request{Relation: wreq.Relation, KNN: &KNNToken{point: point, k: k}}, nil
	default:
		return Request{}, secerr.New(secerr.CodeBadRequest, "sectopk: unknown workload %q", wreq.Workload)
	}
}

// encodeWireAnswer serializes an answer with the persistence codec of
// its workload.
func encodeWireAnswer(ans *Answer) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch ans.Workload() {
	case WorkloadTopK:
		err = secio.WriteQueryResult(&buf, ans.TopK.items, ans.TopK.Depth, ans.TopK.Halted)
	case WorkloadJoin:
		err = secio.WriteJoinResult(&buf, ans.Join.tuples)
	case WorkloadKNN:
		err = secio.WriteKNNResult(&buf, ans.KNN.items)
	}
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeInternal, err, "sectopk: encoding answer")
	}
	return buf.Bytes(), nil
}
