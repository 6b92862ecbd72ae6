package parallel

import (
	"sync"
	"time"
)

// Pool runs background filler goroutines that keep a bounded buffer of
// precomputed values. Get never blocks — a drained pool reports !ok and
// Next computes inline — so a Pool is purely a throughput optimization
// and can never change results. The crypto layers use it to precompute
// the nonce powers that dominate Paillier encryption — the single
// hottest operation in the system — so that a foreground encryption
// reduces to two modular multiplications.
//
// Fillers start lazily on the first Get: a pool a consumer never draws
// from (e.g. S1's ephemeral surface during a query that runs no blind
// record round) costs nothing.
type Pool[T any] struct {
	workers int
	fill    func() (T, error)
	ch      chan T
	stop    chan struct{}

	mu      sync.Mutex
	started bool
	closed  bool
	wg      sync.WaitGroup
}

// NewPool prepares a pool of up to capacity precomputed values from fill,
// served by workers filler goroutines once the first Get arrives. A fill
// error stops that filler; consumers keep working through their inline
// fallback and surface the error there. Close must be called to release
// started fillers (it is safe, and a no-op, if none ever started).
func NewPool[T any](workers, capacity int, fill func() (T, error)) *Pool[T] {
	if workers < 1 {
		workers = 1
	}
	if capacity < workers {
		capacity = workers
	}
	return &Pool[T]{
		workers: workers,
		fill:    fill,
		ch:      make(chan T, capacity),
		stop:    make(chan struct{}),
	}
}

func (p *Pool[T]) run() {
	defer p.wg.Done()
	failures := 0
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		v, err := p.fill()
		if err != nil {
			// Transient failures (e.g. a randomness-read blip) get a few
			// backed-off retries; persistent failure stops this filler and
			// consumers surface the error through their inline fallback.
			failures++
			if failures >= 3 {
				return
			}
			select {
			case <-time.After(10 * time.Millisecond):
			case <-p.stop:
				return
			}
			continue
		}
		failures = 0
		select {
		case p.ch <- v:
		case <-p.stop:
			return
		}
	}
}

// Get returns a precomputed value, or ok = false when the buffer is
// drained (the caller should compute inline). The first Get starts the
// background fillers.
func (p *Pool[T]) Get() (v T, ok bool) {
	p.mu.Lock()
	if !p.started && !p.closed {
		p.started = true
		for w := 0; w < p.workers; w++ {
			p.wg.Add(1)
			go p.run()
		}
	}
	p.mu.Unlock()
	select {
	case v = <-p.ch:
		return v, true
	default:
		return v, false
	}
}

// Next returns a precomputed value, or computes one inline — surfacing
// fill's error, if any — when the buffer is drained or the pool closed.
func (p *Pool[T]) Next() (T, error) {
	if v, ok := p.Get(); ok {
		return v, nil
	}
	return p.fill()
}

// Close stops the background fillers. The pool stays usable afterwards
// (Get reports drained and Next computes inline).
// Safe to call more than once.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.stop)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
