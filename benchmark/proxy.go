package main

import (
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// delayProxy is a TCP relay that holds every chunk of bytes for a fixed
// time in each direction before forwarding it — the benchmark's own model
// of a WAN between the two clouds. It preserves byte order and
// pipelining: the reader of a direction never waits for the writer, so
// any number of chunks can be in flight, each released at its arrival
// time plus the delay.
//
// Releases are paced by one goroutine that sleeps in nanosleep(2) on its
// own OS thread. time.Sleep cannot do it: with every P idle the Go
// runtime waits in epoll with a whole-millisecond timeout, which turns a
// 1.5 ms sleep into 2.2 ms, and spinning instead would bill the wait to
// the process's CPU time, which the benchmark reports.
type delayProxy struct {
	listener net.Listener
	target   string
	delay    time.Duration
	// held is every chunk of every connection, in arrival order. The delay
	// is constant, so arrival order is release order and one pacer serves
	// all directions.
	held chan chunk
	// lateNs is how long after its release time a chunk usually finishes
	// being written (thread wake-ups, the channel hop, the write itself):
	// the median lateness of recent chunks. The pacer
	// wakes that much early, so the delay a caller sees is the configured
	// one and not the configured one plus the proxy's own cost; the writer
	// never writes before the release time.
	lateNs atomic.Int64
	late   lateWindow

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	relays sync.WaitGroup // accept loop and relays: everything that feeds held
	wg     sync.WaitGroup // the pacer
}

// chunk is one read's worth of bytes, the time it may be forwarded, and
// the writer that forwards it.
type chunk struct {
	data    []byte
	release time.Time
	out     chan<- chunk
}

// inFlightChunks bounds the chunks held (in all directions together, and
// again per direction between pacer and writer). At the 32 KiB read size
// that is 32 MiB, far more than the two clouds ever have in flight; a
// reader that fills it blocks, which is ordinary TCP backpressure.
const inFlightChunks = 1024

// newDelayProxy listens on a loopback port and relays every accepted
// connection to target, adding delay in each direction.
func newDelayProxy(target string, delay time.Duration) (*delayProxy, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &delayProxy{listener: l, target: target, delay: delay, held: make(chan chunk, inFlightChunks)}
	p.relays.Add(1)
	go p.accept()
	p.wg.Add(1)
	go p.pace()
	return p, nil
}

// pace hands each held chunk to its writer when its release time comes.
func (p *delayProxy) pace() {
	defer p.wg.Done()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// The thread's default 50 us timer slack would add to every hop.
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: without it hops run ~50 us long
	for c := range p.held {
		wake := c.release.Add(-time.Duration(p.lateNs.Load()))
		for d := time.Until(wake); d > 0; d = time.Until(wake) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
		}
		c.out <- c
	}
}

// lateWindow remembers the lateness of the last few chunks.
type lateWindow struct {
	mu   sync.Mutex
	ring [16]time.Duration
	n    int
}

// observeLate records one chunk's lateness and republishes the median of
// the recent ones, within half the delay. A mean would follow the chunks a
// busy CPU wrote late, which is not the proxy's own cost.
func (p *delayProxy) observeLate(late time.Duration) {
	w := &p.late
	w.mu.Lock()
	w.ring[w.n%len(w.ring)] = late
	w.n++
	recent := append([]time.Duration(nil), w.ring[:min(w.n, len(w.ring))]...)
	w.mu.Unlock()
	sort.Slice(recent, func(a, b int) bool { return recent[a] < recent[b] })
	usual := recent[len(recent)/2]
	if usual > p.delay/2 {
		usual = p.delay / 2
	}
	if usual < 0 {
		usual = 0
	}
	p.lateNs.Store(int64(usual))
}

// Addr is the address clients dial instead of the target.
func (p *delayProxy) Addr() string { return p.listener.Addr().String() }

func (p *delayProxy) accept() {
	defer p.relays.Done()
	for {
		down, err := p.listener.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close()
			continue
		}
		if !p.track(down, up) {
			down.Close()
			up.Close()
			return
		}
		p.relays.Add(2)
		go p.relay(up, down)
		go p.relay(down, up)
	}
}

// track registers a connection pair for Close; false once closed.
func (p *delayProxy) track(conns ...net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns = append(p.conns, conns...)
	return true
}

// relay copies src to dst through the pacer. When src ends it closes both
// ends, which also ends the opposite direction's relay.
func (p *delayProxy) relay(dst, src net.Conn) {
	defer p.relays.Done()
	out := make(chan chunk, inFlightChunks)
	done := make(chan struct{})
	go func() {
		defer close(done)
		failed := false
		for c := range out {
			// After a failed write keep draining, so the pacer never blocks
			// on a dead writer.
			if c.data == nil {
				return
			}
			if !failed {
				// The pacer woke early by the proxy's usual lateness; if this
				// hand-over was quicker than usual, yield out the remainder.
				for time.Now().Before(c.release) {
					runtime.Gosched()
				}
				_, err := dst.Write(c.data)
				failed = err != nil
				p.observeLate(time.Since(c.release))
			}
		}
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.held <- chunk{data: append([]byte(nil), buf[:n]...), release: time.Now().Add(p.delay), out: out}
		}
		if err != nil {
			break
		}
	}
	// The end marker travels the same path, so every chunk read before it
	// is written before the connections close.
	p.held <- chunk{release: time.Now(), out: out}
	<-done
	src.Close()
	dst.Close()
}

// Close stops accepting, closes every relayed connection and waits for
// all relay goroutines to exit.
func (p *delayProxy) Close() {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	// accept and every relay exit once their connections are closed; the
	// pacer exits once no relay can send to it any more.
	p.relays.Wait()
	close(p.held)
	p.wg.Wait()
}
