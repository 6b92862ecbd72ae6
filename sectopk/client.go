package sectopk

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"net"

	"repro/internal/backoff"
	"repro/internal/secerr"
	"repro/internal/secio"
	"repro/internal/transport"
)

// Client is the authorized-querier role: it holds trapdoors issued by an
// owner and submits queries to a remote DataCloud over the client wire
// protocol (see ServeClients). One client multiplexes any number of
// concurrent Execute calls on a single connection; it is safe for
// concurrent use. The client never holds key material — it ships tokens
// and receives encrypted answers, which travel back to the owner for
// revealing.
//
// A client built with DialRetry additionally recovers from failures:
// the connection re-dials itself, and failed Execute calls are retried
// under the configured policy (see DialRetry).
type Client struct {
	conn  transport.ConnCaller
	stats *transport.Stats
	// retry, when non-nil, re-issues failed Execute calls (transport
	// failures and overload sheds) under this policy. Set by DialRetry.
	retry *backoff.Policy
	// tenant is the name announced in the Hello (WithTenant); the server
	// buckets this connection's requests under it for QoS admission.
	tenant string
}

// Dial connects to a DataCloud serving clients at addr (TCP), opens the
// multiplexed framing, and runs the client-plane version handshake.
// WithTenant names the tenant the connection identifies as; other
// options are ignored.
func Dial(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeTransport, err, "sectopk: dialing data cloud")
	}
	c, err := NewClient(ctx, conn, opts...)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection to a DataCloud client
// listener (TCP, unix socket, ...): it opens the multiplexed framing and
// runs the version handshake. The connection is owned by the client from
// here on and closed by Close. WithTenant names the tenant the connection
// identifies as; other options are ignored.
func NewClient(ctx context.Context, conn net.Conn, opts ...Option) (*Client, error) {
	stats := transport.NewStats()
	mc, err := transport.Connect(ctx, conn, stats)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: mc, stats: stats, tenant: buildConfig(opts).tenant}
	if err := c.helloOn(ctx, mc); err != nil {
		mc.Close()
		return nil, err
	}
	return c, nil
}

// helloOn runs the client-plane version handshake over any caller — the
// freshly connected client, or each reconnect of a self-healing
// transport (ReconnectCaller's OnConnect). It announces this build's
// version and the tenant, and requires the server to answer at the same
// version.
func (c *Client) helloOn(ctx context.Context, caller transport.Caller) error {
	var rep clientHelloReply
	req := clientHello{Version: clientProtocolVersion, Tenant: c.tenant}
	if err := caller.Call(ctx, methodClientHello, req, &rep); err != nil {
		return err
	}
	return checkClientVersion("server", rep.Version)
}

// DialRetry connects to a DataCloud like Dial, but through the
// self-healing transport: the connection is dialed (and, after link
// failures, re-dialed) under the retry policy of WithRetry (package
// defaults otherwise; other options are ignored), with the version
// handshake re-run on every fresh link. Execute calls additionally
// retry on transport failures and overload sheds (ErrOverloaded — e.g.
// a data cloud at its WithSessionLimit, or one draining for shutdown),
// carrying an idempotency key so the server accounts a retried query as
// one query, not a repeated query pattern. Errors the server computed —
// unknown relation, invalid token, bad request — surface immediately,
// wrapped with the attempt history.
func DialRetry(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	cfg := buildConfig(opts)
	policy := cfg.retryPolicy()
	stats := transport.NewStats()
	c := &Client{stats: stats, retry: &policy, tenant: cfg.tenant}
	rc := transport.NewReconnectCaller(transport.ReconnectConfig{
		Dial: func(ctx context.Context) (transport.ConnCaller, error) {
			var dialer net.Dialer
			conn, err := dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, secerr.Wrap(secerr.CodeTransport, err, "sectopk: dialing data cloud")
			}
			mc, err := transport.Connect(ctx, conn, stats)
			if err != nil {
				conn.Close()
				return nil, err
			}
			return mc, nil
		},
		OnConnect: c.helloOn,
		Policy:    policy,
	})
	// Eager first dial (the version handshake rides OnConnect): fail
	// DialRetry after the policy's attempts rather than the first
	// Execute when the data cloud is unreachable.
	if err := rc.Connect(ctx); err != nil {
		rc.Close()
		return nil, err
	}
	c.conn = rc
	return c, nil
}

// Execute submits one request of any workload and returns its encrypted
// answer — the remote counterpart of DataCloud.Execute, down to the
// error taxonomy: a failure reported by the server matches the same
// Err* sentinels under errors.Is as the in-process call would.
// Cancellation abandons only this request's frame; other in-flight
// requests on the connection proceed undisturbed. The answer's Traffic
// is measured on the shared connection counters, so with concurrent
// Execute calls on one client the per-answer numbers are approximate
// (Client.Traffic stays exact cumulatively).
func (c *Client) Execute(ctx context.Context, req Request) (*Answer, error) {
	w, err := req.workload()
	if err != nil {
		return nil, err
	}
	token, err := encodeWireToken(req, w)
	if err != nil {
		return nil, err
	}
	wreq := clientExecuteRequest{
		Relation:    req.Relation,
		Workload:    string(w),
		Token:       token,
		Options:     buildQueryConfig(req.Options).wire(),
		Idempotency: newIdempotencyKey(),
	}
	before := c.stats.Total()
	var rep clientExecuteReply
	if c.retry != nil {
		err = backoff.Retry(ctx, methodClientExecute, *c.retry, executeRetryable,
			func(ctx context.Context) error {
				wreq.Attempt++
				rep = clientExecuteReply{}
				return c.conn.Call(ctx, methodClientExecute, wreq, &rep)
			})
	} else {
		err = c.conn.Call(ctx, methodClientExecute, wreq, &rep)
	}
	if err != nil {
		return nil, err
	}
	after := c.stats.Total()
	ans, err := decodeWireAnswer(w, rep.Answer)
	if err != nil {
		return nil, err
	}
	ans.Traffic = Traffic{
		Rounds: after.Calls - before.Calls,
		Bytes:  (after.BytesSent + after.BytesReceived) - (before.BytesSent + before.BytesReceived),
		// The server-side span fields.
		S2Calls:        rep.S2Calls,
		FanOut:         rep.FanOut,
		MergeFallbacks: rep.MergeFallbacks,
		Epoch:          rep.Epoch,
	}
	return ans, nil
}

// Apply ships one mutation delta to the remote DataCloud and returns
// the epoch the relation reached — the remote counterpart of
// DataCloud.Apply. A client built with DialRetry retries Apply like
// Execute: the retry is safe even though Apply mutates, because the
// delta's embedded idempotency key makes the server replay the recorded
// epoch instead of reapplying.
func (c *Client) Apply(ctx context.Context, relation string, delta *Delta) (uint64, error) {
	if delta == nil {
		return 0, secerr.New(secerr.CodeBadRequest, "sectopk: nil delta")
	}
	var buf bytes.Buffer
	if err := secio.WriteDelta(&buf, delta.d, delta.params); err != nil {
		return 0, secerr.Wrap(secerr.CodeInternal, err, "sectopk: encoding delta")
	}
	wreq := clientApplyRequest{Relation: relation, Delta: buf.Bytes()}
	var rep clientApplyReply
	var err error
	if c.retry != nil {
		err = backoff.Retry(ctx, methodClientApply, *c.retry, executeRetryable,
			func(ctx context.Context) error {
				rep = clientApplyReply{}
				return c.conn.Call(ctx, methodClientApply, wreq, &rep)
			})
	} else {
		err = c.conn.Call(ctx, methodClientApply, wreq, &rep)
	}
	if err != nil {
		return 0, err
	}
	return rep.Epoch, nil
}

// Compact asks the remote DataCloud to fold a relation's tombstones and
// returns the new epoch — the remote counterpart of DataCloud.Compact.
// Unlike Apply, a compaction carries no idempotency key, so this call
// is never retried: a transport failure leaves it ambiguous whether the
// compaction landed, and the owner resolves that by re-hosting from its
// bundle rather than by guessing.
func (c *Client) Compact(ctx context.Context, relation string) (uint64, error) {
	var rep clientApplyReply
	if err := c.conn.Call(ctx, methodClientCompact, clientCompactRequest{Relation: relation}, &rep); err != nil {
		return 0, err
	}
	return rep.Epoch, nil
}

// executeRetryable decides which Execute failures are worth repeating:
// link failures (the request or its reply was lost) and overload sheds
// (the server asked us to back off). Errors the server computed would
// fail identically again and surface immediately.
func executeRetryable(err error) bool {
	switch secerr.CodeOf(err) {
	case secerr.CodeTransport, secerr.CodeOverloaded:
		return true
	default:
		return false
	}
}

// newIdempotencyKey draws a fresh random run key for one logical query.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy means no dedup, not no query: an empty key keeps
		// the pre-idempotency accounting semantics.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// encodeWireToken serializes the request's trapdoor with the persistence
// codec of its workload.
func encodeWireToken(req Request, w Workload) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch w {
	case WorkloadTopK:
		err = secio.WriteToken(&buf, req.TopK.tk)
	case WorkloadJoin:
		err = secio.WriteJoinToken(&buf, req.Join.tk)
	case WorkloadKNN:
		err = secio.WriteKNNToken(&buf, req.KNN.point, req.KNN.k)
	}
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeInvalidToken, err, "sectopk: encoding %s token", w)
	}
	return buf.Bytes(), nil
}

// decodeWireAnswer parses the server's answer payload with the
// persistence codec of the request's workload.
func decodeWireAnswer(w Workload, payload []byte) (*Answer, error) {
	r := bytes.NewReader(payload)
	ans := &Answer{}
	switch w {
	case WorkloadTopK:
		items, depth, halted, err := secio.ReadQueryResult(r)
		if err != nil {
			return nil, secerr.Wrap(secerr.CodeTransport, err, "sectopk: decoding top-k answer")
		}
		ans.TopK = &EncryptedResult{items: items, Depth: depth, Halted: halted}
	case WorkloadJoin:
		tuples, err := secio.ReadJoinResult(r)
		if err != nil {
			return nil, secerr.Wrap(secerr.CodeTransport, err, "sectopk: decoding join answer")
		}
		ans.Join = &EncryptedJoinResult{tuples: tuples}
	case WorkloadKNN:
		items, err := secio.ReadKNNResult(r)
		if err != nil {
			return nil, secerr.Wrap(secerr.CodeTransport, err, "sectopk: decoding kNN answer")
		}
		ans.KNN = &EncryptedKNNResult{items: items}
	}
	return ans, nil
}

// Traffic returns the cumulative wire usage over this client's
// connection (handshake included).
func (c *Client) Traffic() Traffic {
	return Traffic{Rounds: c.stats.Rounds(), Bytes: c.stats.Bytes()}
}

// Close tears the connection down; in-flight requests fail promptly with
// a typed transport error. Safe to call more than once.
func (c *Client) Close() error {
	return c.conn.Close()
}
