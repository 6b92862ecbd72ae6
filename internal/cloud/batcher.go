package cloud

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/secerr"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Batcher is the S1-side batch scheduler: a transport.Caller that
// coalesces protocol calls from concurrent sessions into BatchRequest
// envelopes, so the crypto cloud's worker pool sees a few large batches
// per round trip instead of per-session dribbles.
//
// Scheduling is latency-neutral for a lone session and convoy-forming
// under load: a call arriving while the link is idle flushes immediately;
// while an envelope is in flight, arrivals accumulate and drain either
// when the in-flight envelope returns, when the queue reaches the size
// threshold, or on the flush tick — whichever comes first. Envelopes are
// issued concurrently (a multiplexed transport keeps several in flight).
//
// Hello rounds bypass the scheduler: handshakes run before traffic and
// must not wait on it. All methods are safe for concurrent use.
type Batcher struct {
	caller transport.Caller
	window time.Duration

	mu         sync.Mutex
	queue      []*batchCall
	inflight   int
	timer      *time.Timer
	timerArmed bool
	closed     bool
	wg         sync.WaitGroup

	// items counts every call ever shipped in an envelope — the per-query
	// S2-call accounting reads deltas of it (approximate under concurrency,
	// like the shared connection's Traffic counters).
	items atomic.Int64
}

// Items returns the cumulative count of protocol calls shipped to S2
// through this batcher.
func (b *Batcher) Items() int64 { return b.items.Load() }

// batchCall is one queued protocol call awaiting its slot in an envelope.
type batchCall struct {
	method string
	body   []byte
	done   chan batchOutcome // buffered: senders never block on delivery
}

type batchOutcome struct {
	body []byte
	err  error
}

// DefaultBatchSize is the flush-on-size threshold.
const DefaultBatchSize = 64

// DefaultBatchWindow is the flush tick: the longest a queued call waits
// behind an in-flight envelope before draining anyway.
const DefaultBatchWindow = time.Millisecond

// NewBatcher wraps a transport with the batch scheduler. Call Close when
// done; the underlying caller is not closed.
func NewBatcher(caller transport.Caller) *Batcher {
	return &Batcher{caller: caller, window: DefaultBatchWindow}
}

// Call implements transport.Caller: the request is encoded, queued into
// the next envelope, and the matching per-item reply decoded into resp.
// A canceled context abandons only this call (its slot in an already
// scheduled envelope is still computed, and the result discarded).
func (b *Batcher) Call(ctx context.Context, method string, req, resp any) error {
	if method == MethodHello {
		return b.caller.Call(ctx, method, req, resp)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cloud: %s: %w", method, err)
	}
	body, err := transport.Encode(req)
	if err != nil {
		return secerr.Wrap(secerr.CodeTransport, err, "encoding %s request", method)
	}
	bc := &batchCall{method: method, body: body, done: make(chan batchOutcome, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return secerr.New(secerr.CodeTransport, "cloud: %s: batcher closed", method)
	}
	b.queue = append(b.queue, bc)
	switch {
	case b.inflight == 0:
		// Idle link: flush immediately, so a lone session pays no
		// scheduling latency at all.
		b.flushLocked("idle")
	case len(b.queue) >= DefaultBatchSize:
		b.flushLocked("size")
	default:
		b.armTimerLocked()
	}
	b.mu.Unlock()

	select {
	case out := <-bc.done:
		if out.err != nil {
			return out.err
		}
		if resp == nil {
			return nil
		}
		if err := transport.Decode(out.body, resp); err != nil {
			return secerr.Wrap(secerr.CodeTransport, err, "decoding %s response", method)
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cloud: %s: %w", method, ctx.Err())
	}
}

// flushLocked ships the queued calls as one envelope (mu held); reason
// labels the flush trigger in the metrics.
func (b *Batcher) flushLocked(reason string) {
	if len(b.queue) == 0 {
		return
	}
	calls := b.queue
	b.queue = nil
	if b.timerArmed {
		b.timer.Stop()
		b.timerArmed = false
	}
	b.inflight++
	b.items.Add(int64(len(calls)))
	telemetry.Default().Counter("sectopk_batch_flushes_total", "reason", reason).Inc()
	telemetry.Default().Counter("sectopk_batch_items_total").Add(int64(len(calls)))
	b.wg.Add(1)
	go b.send(calls)
}

// armTimerLocked schedules the flush tick (mu held).
func (b *Batcher) armTimerLocked() {
	if b.timerArmed {
		return
	}
	b.timerArmed = true
	if b.timer == nil {
		b.timer = time.AfterFunc(b.window, b.onTick)
	} else {
		b.timer.Reset(b.window)
	}
}

func (b *Batcher) onTick() {
	b.mu.Lock()
	b.timerArmed = false
	if !b.closed {
		b.flushLocked("tick")
	}
	b.mu.Unlock()
}

// send issues one envelope round and distributes the per-item outcomes.
// The envelope runs under the background context: per-call cancellation
// abandons the result, never a co-batched neighbour's round.
func (b *Batcher) send(calls []*batchCall) {
	defer b.wg.Done()
	req := BatchRequest{Items: make([]BatchItem, len(calls))}
	for i, c := range calls {
		req.Items[i] = BatchItem{Method: c.method, Body: c.body}
	}
	var reply BatchReply
	telemetry.Default().Counter("sectopk_s2_rounds_total").Inc()
	err := b.caller.Call(context.Background(), MethodBatch, &req, &reply)
	if err == nil && len(reply.Items) != len(calls) {
		err = secerr.New(secerr.CodeTransport,
			"cloud: batch reply has %d items, want %d", len(reply.Items), len(calls))
	}
	for i, c := range calls {
		if err != nil {
			c.done <- batchOutcome{err: fmt.Errorf("cloud: %s: %w", c.method, err)}
			continue
		}
		it := reply.Items[i]
		if it.ErrCode != "" {
			c.done <- batchOutcome{err: fmt.Errorf("cloud: %s: remote: %w", c.method, secerr.FromWire(it.ErrCode, it.ErrMsg))}
			continue
		}
		c.done <- batchOutcome{body: it.Body}
	}
	b.mu.Lock()
	b.inflight--
	if !b.closed && len(b.queue) > 0 {
		// Drain the convoy that formed behind this round.
		b.flushLocked("drain")
	}
	b.mu.Unlock()
}

// Close fails every queued call with a typed transport error and waits
// for in-flight envelopes to finish distributing. Safe to call more than
// once; the underlying transport is left open.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	queued := b.queue
	b.queue = nil
	if b.timerArmed {
		b.timer.Stop()
		b.timerArmed = false
	}
	b.mu.Unlock()
	for _, c := range queued {
		c.done <- batchOutcome{err: secerr.New(secerr.CodeTransport, "cloud: %s: batcher closed", c.method)}
	}
	b.wg.Wait()
}
