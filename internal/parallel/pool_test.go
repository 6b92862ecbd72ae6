package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolLazyStartAndGet(t *testing.T) {
	var fills atomic.Int32
	p := NewPool(2, 4, func() (int, error) {
		fills.Add(1)
		return 7, nil
	})
	// No Get yet: fillers must not have started.
	time.Sleep(20 * time.Millisecond)
	if n := fills.Load(); n != 0 {
		t.Fatalf("pool filled %d values before first Get", n)
	}
	// First Get may or may not find a value (fillers just started), but
	// shortly after, values must flow.
	p.Get()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok := p.Get(); ok {
			if v != 7 {
				t.Fatalf("pool yielded %d, want 7", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never produced a value after first Get")
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()
	p.Close() // idempotent
}

func TestPoolCloseBeforeUse(t *testing.T) {
	var fills atomic.Int32
	p := NewPool(2, 4, func() (int, error) {
		fills.Add(1)
		return 1, nil
	})
	p.Close()
	if _, ok := p.Get(); ok {
		t.Fatal("closed-before-use pool produced a value")
	}
	time.Sleep(20 * time.Millisecond)
	if n := fills.Load(); n != 0 {
		t.Fatalf("closed-before-use pool ran %d fills", n)
	}
}

func TestPoolFillErrorDegradesToInline(t *testing.T) {
	p := NewPool(1, 2, func() (int, error) {
		return 0, errors.New("rand broke")
	})
	defer p.Close()
	p.Get() // starts the filler, which dies on the error
	time.Sleep(20 * time.Millisecond)
	if _, ok := p.Get(); ok {
		t.Fatal("erroring pool produced a value")
	}
}

// TestPoolNextHandsEachValueOutOnce numbers fill's outputs, so a value
// the pool handed to two callers would show as a repeat: concurrent
// drawers across the buffer, the drained-pool fallback and Close see
// every number at most once, and draws after Close still succeed.
func TestPoolNextHandsEachValueOutOnce(t *testing.T) {
	var next atomic.Int64
	pool := NewPool(2, 4, func() (int64, error) { return next.Add(1), nil })

	var mu sync.Mutex
	seen := map[int64]bool{}
	draw := func(n int) {
		for i := 0; i < n; i++ {
			v, err := pool.Next()
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if seen[v] {
				t.Errorf("value #%d handed out twice", v)
			}
			seen[v] = true
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() { defer wg.Done(); draw(200) }()
	}
	wg.Wait()
	pool.Close()
	draw(20)
	if len(seen) != 4*200+20 {
		t.Errorf("%d distinct values for %d draws", len(seen), 4*200+20)
	}
}

// TestPoolNextSurfacesFillError: a pool whose fill fails has nothing
// buffered, and Next reports the failure from its inline attempt.
func TestPoolNextSurfacesFillError(t *testing.T) {
	boom := errors.New("rand broke")
	p := NewPool(1, 2, func() (int, error) { return 0, boom })
	defer p.Close()
	if _, err := p.Next(); !errors.Is(err, boom) {
		t.Fatalf("Next = %v, want fill's error", err)
	}
}
