package sectopk

import (
	"context"
	"time"

	"repro/internal/secerr"
)

// Workload names one of the query kinds the unified Request surface
// executes. The string values are part of the client wire protocol.
type Workload string

const (
	// WorkloadTopK is a SecTopK top-k selection query (Algorithm 3).
	WorkloadTopK Workload = "topk"
	// WorkloadJoin is a secure top-k equi-join (Section 12).
	WorkloadJoin Workload = "join"
	// WorkloadKNN is a secure k-nearest-neighbors query (Section 11.3).
	WorkloadKNN Workload = "knn"
)

// Request is the unified query surface: one hosted relation ID plus
// exactly one workload trapdoor — a top-k Token, a JoinToken, or a
// KNNToken — and the per-query options. Build one with TopKRequest,
// JoinRequest, or KNNRequest, then hand it to DataCloud.Execute (in
// process) or Client.Execute (over the wire); both return the same
// *Answer.
type Request struct {
	// Relation is the hosted relation ID the request targets.
	Relation string
	// TopK, Join, KNN: exactly one must be non-nil; it selects the
	// workload.
	TopK *Token
	Join *JoinToken
	KNN  *KNNToken
	// Options configure this query's execution (mode, halting, depth
	// caps, epoch pin). Join and kNN runs currently ignore the
	// top-k-specific options.
	Options []QueryOption
}

// TopKRequest builds a top-k request.
func TopKRequest(relation string, tk *Token, opts ...QueryOption) Request {
	return Request{Relation: relation, TopK: tk, Options: opts}
}

// JoinRequest builds a top-k equi-join request.
func JoinRequest(relation string, tk *JoinToken, opts ...QueryOption) Request {
	return Request{Relation: relation, Join: tk, Options: opts}
}

// KNNRequest builds a k-nearest-neighbors request.
func KNNRequest(relation string, tk *KNNToken, opts ...QueryOption) Request {
	return Request{Relation: relation, KNN: tk, Options: opts}
}

// workload validates the sum shape and returns the selected workload.
func (r Request) workload() (Workload, error) {
	if r.Relation == "" {
		return "", secerr.New(secerr.CodeBadRequest, "sectopk: request names no relation")
	}
	var (
		w Workload
		n int
	)
	if r.TopK != nil {
		w, n = WorkloadTopK, n+1
	}
	if r.Join != nil {
		w, n = WorkloadJoin, n+1
	}
	if r.KNN != nil {
		w, n = WorkloadKNN, n+1
	}
	switch n {
	case 1:
		return w, nil
	case 0:
		return "", secerr.New(secerr.CodeInvalidToken, "sectopk: request carries no token")
	default:
		return "", secerr.New(secerr.CodeBadRequest, "sectopk: request carries %d tokens, want exactly one", n)
	}
}

// Answer is the encrypted outcome of one executed Request: exactly the
// field matching the request's workload is non-nil. Traffic is the wire
// usage attributable to the execution — the S1↔S2 rounds for in-process
// execution, or this call's client↔S1 rounds when the answer crossed
// the client wire. Either way the numbers come from the shared
// connection's counters, so they are approximate when requests execute
// concurrently on one connection.
type Answer struct {
	TopK *EncryptedResult
	Join *EncryptedJoinResult
	KNN  *EncryptedKNNResult

	Traffic Traffic
}

// Workload returns which workload produced this answer.
func (a *Answer) Workload() Workload {
	switch {
	case a.TopK != nil:
		return WorkloadTopK
	case a.Join != nil:
		return WorkloadJoin
	default:
		return WorkloadKNN
	}
}

// Execute runs one request of any workload against a hosted relation:
// it validates the sum shape and the query options, resolves the
// relation in the registry, and drives the workload's protocol against
// the connected crypto cloud. Unknown (or workload-mismatched) relation
// IDs fail with ErrUnknownRelation; malformed trapdoors with
// ErrInvalidToken; option values outside their documented range with
// ErrBadRequest. With WithSessionLimit the call first claims an admission
// slot — a request arriving with every slot taken sheds immediately with
// ErrOverloaded rather than queueing; bound in-process concurrency by
// setting the limit and calling Execute from as many goroutines as you
// like. A draining data cloud (Close under WithDrainTimeout) likewise
// sheds new requests while the in-flight ones finish. This is the only
// way to run a query: the remote client plane (ServeClients) and a
// cluster front door's forwarding both funnel into it.
func (d *DataCloud) Execute(ctx context.Context, req Request) (*Answer, error) {
	return d.execute(ctx, req, buildQueryConfig(req.Options), d.admit)
}

// execute is the shared execution path: in-process and remote requests
// funnel here with their resolved query config and admission gate (nil =
// unbounded). The config is validated here, where both paths meet, so a
// value cast from a peer's wire integers fails exactly like an in-process
// caller's. It brackets the run for the telemetry plane — one QuerySpan
// per request, shed and failed ones included — and feeds successful
// service times into the QoS limiter's deadline estimator.
func (d *DataCloud) execute(ctx context.Context, req Request, cfg queryConfig, adm *admission) (*Answer, error) {
	w, err := req.workload()
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(req); err != nil {
		return nil, err
	}
	start := time.Now()
	ans, err := d.executeWorkload(ctx, w, req, cfg, adm)
	elapsed := time.Since(start)
	if err == nil {
		d.qos.Observe(elapsed)
	}
	d.emitSpan(w, req.Relation, cfg.tenant, ans, err, elapsed)
	return ans, err
}

// executeWorkload runs one validated request through admission and its
// hosted entry's protocol. Admission is layered: the drain/closed check
// first, then the per-tenant QoS budget (which sheds typed, never
// queues), then the session-limit gate. Only then is the id resolved —
// an entry that serves another workload refuses typed, naming its kind —
// and executed outside d.mu, with the span counters measured around it.
func (d *DataCloud) executeWorkload(ctx context.Context, w Workload, req Request, cfg queryConfig, adm *admission) (*Answer, error) {
	if err := d.beginExecute(); err != nil {
		return nil, err
	}
	defer d.endExecute()
	if err := d.qos.Admit(ctx, cfg.tenant); err != nil {
		return nil, err
	}
	if err := adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer adm.release()
	h, err := d.lookup(req.Relation)
	if err != nil {
		return nil, err
	}
	if _, serves := h.kind(); serves != w {
		return nil, mismatch(req.Relation, h, w)
	}
	before, s2Before, fbBefore := d.Traffic(), d.s2Calls(), mergeFallbackCount()
	ans, err := h.execute(ctx, req, cfg)
	if err != nil {
		return nil, err
	}
	after := d.Traffic()
	ans.Traffic.Rounds = after.Rounds - before.Rounds
	ans.Traffic.Bytes = after.Bytes - before.Bytes
	ans.Traffic.S2Calls = d.s2Calls() - s2Before
	ans.Traffic.MergeFallbacks = mergeFallbackCount() - fbBefore
	return ans, nil
}
