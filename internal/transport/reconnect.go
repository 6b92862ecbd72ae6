package transport

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/secerr"
)

// ReconnectConfig configures a ReconnectCaller.
type ReconnectConfig struct {
	// Dial establishes a new connection-backed caller (typically net.Dial
	// followed by Connect). Required.
	Dial func(ctx context.Context) (ConnCaller, error)
	// OnConnect, when non-nil, runs after each successful dial and before
	// the connection serves calls — the place for the Hello handshake and
	// any per-connection state the peer expects. A failure discards the
	// connection and counts as a failed dial attempt.
	OnConnect func(ctx context.Context, c Caller) error
	// Policy is the dial retry schedule; the zero value uses the backoff
	// package defaults (capped exponential with full jitter).
	Policy backoff.Policy
	// ConnectTimeout bounds a single dial+OnConnect attempt when the
	// caller's context carries no deadline of its own. Zero uses the
	// preface timeout.
	ConnectTimeout time.Duration
}

// ReconnectCaller is a Caller that survives connection loss: it dials
// lazily, re-dials (with capped exponential backoff and jitter) after a
// transport failure, and re-runs the OnConnect hook — the Hello
// handshake — on every fresh connection, so replaced links are
// re-checked before serving calls.
//
// It deliberately does NOT re-issue the failed round: what may be
// repeated is the query's business (a remote Client re-executes the
// query, a second run of its token), while this type only knows links. A Call whose
// link failed invalidates the connection; the next Call finds no
// connection and dials anew. Concurrent calls share one connection (the
// mux layer interleaves them) and wait for one shared dial.
type ReconnectCaller struct {
	cfg ReconnectConfig

	mu     sync.Mutex
	cur    ConnCaller
	gen    int // bumps per connection, so one failure invalidates once
	closed bool
}

// NewReconnectCaller builds a ReconnectCaller; it does not dial until the
// first Call.
func NewReconnectCaller(cfg ReconnectConfig) *ReconnectCaller {
	return &ReconnectCaller{cfg: cfg}
}

// dialRetryable keeps the dial loop trying through link-level failures
// but stops on a protocol-version mismatch: a peer speaking the wrong
// protocol will not start speaking the right one on the next attempt.
func dialRetryable(err error) bool {
	return secerr.CodeOf(err) != secerr.CodeProtocolVersion
}

// linkFailed reports whether a failed call broke its connection: a
// transport-coded error the mux did not mark linkKept.
func linkFailed(err error) bool {
	return secerr.CodeOf(err) == secerr.CodeTransport && !errors.As(err, new(linkKept))
}

// conn returns the live connection, dialing (with backoff) if there is
// none. The mutex is held across dialing so concurrent callers wait for
// the single in-flight dial instead of racing their own.
func (c *ReconnectCaller) conn(ctx context.Context) (ConnCaller, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, secerr.New(secerr.CodeTransport, "transport: reconnect caller closed")
	}
	if c.cur != nil {
		return c.cur, c.gen, nil
	}
	err := backoff.Retry(ctx, "dial", c.cfg.Policy, dialRetryable, func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); !ok {
			timeout := c.cfg.ConnectTimeout
			if timeout <= 0 {
				timeout = prefaceTimeout
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		cc, err := c.cfg.Dial(ctx)
		if err != nil {
			return err
		}
		if c.cfg.OnConnect != nil {
			if err := c.cfg.OnConnect(ctx, cc); err != nil {
				cc.Close()
				return err
			}
		}
		c.cur = cc
		c.gen++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return c.cur, c.gen, nil
}

// invalidate drops the connection of generation gen (a no-op if a newer
// connection already replaced it, so one shared failure tears down the
// link exactly once).
func (c *ReconnectCaller) invalidate(gen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen || c.cur == nil {
		return
	}
	c.cur.Close()
	c.cur = nil
}

// Call implements Caller: acquire (or re-establish) the connection, issue
// the round, and on a failure of the link itself tear the connection
// down so the next Call re-dials. An error reply from the peer keeps the
// connection, whatever its code. The failed round's error is returned
// as-is — the layer above decides whether to repeat anything.
func (c *ReconnectCaller) Call(ctx context.Context, method string, req, resp any) error {
	cur, gen, err := c.conn(ctx)
	if err != nil {
		return err
	}
	err = cur.Call(ctx, method, req, resp)
	if linkFailed(err) {
		c.invalidate(gen)
	}
	return err
}

// Connect establishes the connection now — dialing under the policy and
// running OnConnect — without issuing a round. Constructors use it for
// eager fail-fast validation; a plain Call would bolt one unretried
// round onto the (already retried and handshaken) dial.
func (c *ReconnectCaller) Connect(ctx context.Context) error {
	_, _, err := c.conn(ctx)
	return err
}

// Connected reports whether a live connection is currently established
// (false before the first Call and between a failure and the re-dial).
func (c *ReconnectCaller) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur != nil
}

// Close tears down the current connection, if any, and stops future
// dialing. Safe to call more than once.
func (c *ReconnectCaller) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.cur == nil {
		return nil
	}
	err := c.cur.Close()
	c.cur = nil
	return err
}
