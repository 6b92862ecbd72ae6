package main

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer echoes every connection until the listener closes.
func echoServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c) // ends when the peer closes
			}()
		}
	}()
	return l.Addr().String(), func() { l.Close(); <-done }
}

// roundTrips returns the median time of n one-message echoes.
func roundTrips(t *testing.T, addr string, n int) time.Duration {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 8)
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, msSince(t0))
	}
	return time.Duration(median(ms) * float64(time.Millisecond))
}

func TestDelayProxyAddsConfiguredDelay(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	const delay = 3 * time.Millisecond
	p, err := newDelayProxy(addr, delay)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	direct := roundTrips(t, addr, 30)
	through := roundTrips(t, p.Addr(), 30)
	added := (through - direct) / 2
	if added < delay*8/10 || added > delay*12/10 {
		t.Errorf("proxy added %v each way (direct %v, through %v), want %v within 20%%", added, direct, through, delay)
	}
}

func TestDelayProxyPreservesOrderAndPipelining(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	const delay = 20 * time.Millisecond
	p, err := newDelayProxy(addr, delay)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const messages = 200
	t0 := time.Now()
	go func() {
		var b [4]byte
		for i := uint32(0); i < messages; i++ {
			binary.BigEndian.PutUint32(b[:], i)
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}()
	var b [4]byte
	for i := uint32(0); i < messages; i++ {
		if _, err := io.ReadFull(c, b[:]); err != nil {
			t.Fatalf("reading message %d: %v", i, err)
		}
		if got := binary.BigEndian.Uint32(b[:]); got != i {
			t.Fatalf("message %d arrived in position %d", got, i)
		}
	}
	// Pipelined writes share the delay: all of them cross in about one
	// round trip, not one round trip each.
	if took := time.Since(t0); took > 5*2*delay {
		t.Errorf("%d pipelined messages took %v; the proxy serialised them (one round trip is %v)", messages, took, 2*delay)
	}
}

func TestDelayProxyCloseIsLeakFree(t *testing.T) {
	addr, stop := echoServer(t)
	defer stop()
	before := goroutines()
	p, err := newDelayProxy(addr, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	roundTrips(t, p.Addr(), 3)
	p.Close()
	waitGoroutines(t, before)
}
