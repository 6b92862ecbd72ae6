// Package parallel is the shared parallel-execution substrate: a bounded
// worker pool over index ranges that every per-element big.Int loop in the
// crypto, protocol, cloud, and engine layers runs on.
//
// The worker budget is runtime.GOMAXPROCS, read when the work runs: at 1
// every loop is strictly serial, in index order — byte-for-byte the
// behavior of a plain for loop, so serial/parallel equivalence is
// testable by running at GOMAXPROCS 1 (go test -cpu 1) — and above 1 at
// most GOMAXPROCS goroutines share the items.
//
// Work items must be independent; ForEachCtx gives each invocation exclusive
// ownership of its index, so writing out[i] from fn(i) is race-free.
//
// Cancellation is cooperative: the context is checked before
// every work item (serial path) or before every claim (worker path), so a
// canceled query stops burning exponentiations after at most one
// in-flight item per worker.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachCtx runs fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines. With a single available core (or n < 2) it degenerates to a
// plain serial loop in index order. The first error stops further
// scheduling and is returned; in-flight items finish first. Once ctx is
// canceled, no further items start and the context's error is returned.
func ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					firstErr.CompareAndSwap(nil, errBox{err})
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || firstErr.Load() != nil {
					return
				}
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, errBox{err})
					return
				}
			}
		}()
	}
	wg.Wait()
	if v := firstErr.Load(); v != nil {
		return v.(errBox).err
	}
	return nil
}

// errBox wraps an error so atomic.Value never sees inconsistently typed
// values (CompareAndSwap requires a consistent concrete type).
type errBox struct{ err error }

// MapErrCtx applies fn to every element of in and collects the results in
// order, scheduling on ForEachCtx.
func MapErrCtx[T, U any](ctx context.Context, in []T, fn func(i int, v T) (U, error)) ([]U, error) {
	out := make([]U, len(in))
	err := ForEachCtx(ctx, len(in), func(i int) error {
		v, err := fn(i, in[i])
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
