package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs sets GOMAXPROCS, the worker budget, for the rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		withProcs(t, p)
		n := 257
		hits := make([]int32, n)
		err := ForEachCtx(context.Background(), n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: unexpected error %v", p, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("p=%d: index %d hit %d times", p, i, h)
			}
		}
	}
}

func TestForEachSerialOrder(t *testing.T) {
	withProcs(t, 1)
	var order []int
	err := ForEachCtx(context.Background(), 10, func(i int) error {
		order = append(order, i) // no locking: one core must mean one goroutine
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken at %d: got %v", i, order)
		}
	}
}

// TestForEachError: the first error stops scheduling. With several
// workers every other item waits until the goroutine count falls below
// its value while item 3 ran. The other workers are held in their items,
// so only the failing worker can exit, and it exits only after storing
// the error: each other worker then finishes the one item it holds and
// starts no more, so no item past 3 runs whatever the scheduler does. (An
// item claimed but not yet started when the error lands never runs.)
// Serially items 0–3 run.
func TestForEachError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, p := range []int{1, 4} {
		withProcs(t, p)
		var calls atomic.Int32
		var alive atomic.Int64 // goroutines while item 3 runs, its worker among them
		err := ForEachCtx(context.Background(), 1000, func(i int) error {
			calls.Add(1)
			if i == 3 {
				alive.Store(int64(runtime.NumGoroutine()))
				return sentinel
			}
			for p > 1 && (alive.Load() == 0 || int64(runtime.NumGoroutine()) >= alive.Load()) {
				runtime.Gosched()
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("p=%d: got %v, want sentinel", p, err)
		}
		if c := calls.Load(); c > 4 {
			t.Fatalf("p=%d: %d calls, want items 0–3 at most: scheduling did not stop at the error", p, c)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachCtx(context.Background(), 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestMapErr(t *testing.T) {
	withProcs(t, 8)
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	out, err := MapErrCtx(context.Background(), in, func(i, v int) (int, error) { return v * v, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if _, err := MapErrCtx(context.Background(), in, func(i, v int) (int, error) {
		if v == 42 {
			return 0, errors.New("boom")
		}
		return v, nil
	}); err == nil {
		t.Fatal("expected error")
	}
}
