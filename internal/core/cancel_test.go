package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
	"repro/internal/transport"
)

// cancelingCaller cancels the query's context right before issuing the
// N-th protocol round, so the cancellation lands mid-query.
type cancelingCaller struct {
	inner  transport.Caller
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (c *cancelingCaller) Call(ctx context.Context, method string, req, resp any) error {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Call(ctx, method, req, resp)
}

// TestSecQueryCancellation cancels a query mid-round at several points
// and at both GOMAXPROCS 1 (serial) and 8 (fanned out): the engine must return
// context.Canceled promptly — within the round the cancellation landed
// in (no further rounds are issued).
func TestSecQueryCancellation(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	for _, procs := range []int{1, 8} {
		for _, after := range []int64{1, 2, 5, 9} {
			// par names the GOMAXPROCS the parties run at.
			t.Run(fmt.Sprintf("par=%d/round=%d", procs, after), func(t *testing.T) {
				withProcs(t, procs)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cc := &cancelingCaller{inner: transport.NewLocal(r.server, nil), cancel: cancel, after: after}
				client, err := cloud.NewClient(cc, r.scheme.PublicKey(), nil)
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
				if err != nil {
					t.Fatal(err)
				}
				engine, err := NewEngine(client, er)
				if err != nil {
					t.Fatal(err)
				}
				res, err := engine.SecQuery(ctx, tk, Options{Mode: QryE})
				if err == nil {
					t.Fatalf("expected cancellation, got result depth=%d", res.Depth)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("error does not unwrap to context.Canceled: %v", err)
				}
				// Bounded by one round: the canceled round is the last one
				// the engine issues.
				if got := cc.calls.Load(); got > after {
					t.Fatalf("engine issued %d rounds after cancellation at round %d", got-after, after)
				}
			})
		}
	}
}

// TestSecQueryPreCanceledContext runs with an already dead context: no
// protocol round may be issued at all.
func TestSecQueryPreCanceledContext(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc := &cancelingCaller{inner: transport.NewLocal(r.server, nil), cancel: func() {}, after: -1}
	client, err := cloud.NewClient(cc, r.scheme.PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(client, er)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.SecQuery(ctx, tk, Options{Mode: QryF}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cc.calls.Load() != 0 {
		t.Fatalf("pre-canceled query still issued %d rounds", cc.calls.Load())
	}
}
