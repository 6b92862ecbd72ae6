package sectopk_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/sectopk"
)

// overloadRig is the minimal hosted stack the admission tests drive: the
// demo relation and one cheap query's token.
type overloadRig struct {
	*stack
	tk *sectopk.Token
}

func newOverloadRig(t *testing.T, spec stackSpec) *overloadRig {
	t.Helper()
	st := newStack(t, spec)
	return &overloadRig{stack: st, tk: st.token(t, sectopk.Query{Attrs: []int{0, 1}, K: 1})}
}

// TestSessionLimitSustainedOverload drives a WithSessionLimit(1) data
// cloud with sustained concurrent load. The contract under overload: excess requests shed
// immediately with typed ErrOverloaded (no unbounded queueing), admitted
// requests complete, and teardown leaves no goroutine behind. The
// collision is forced, not hoped for: S2 holds its reply to the first
// admitted query's first round until a worker has been shed, so that
// query keeps the one session slot however fast it would run, and on
// however few cores.
func TestSessionLimitSustainedOverload(t *testing.T) {
	baseline := runtime.NumGoroutine()
	link := &hold{held: make(chan struct{}), release: make(chan struct{})}
	var stopS2 func()
	rig := newOverloadRig(t, stackSpec{
		connect: dialS2(t, holdListener{Listener: loopback(t), hold: link}, &stopS2),
		opts:    []sectopk.Option{sectopk.WithSessionLimit(1)},
	})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(link.release) }) }
	t.Cleanup(release) // runs before the rig's Close if the test stops early
	ctx := context.Background()
	req := sectopk.TopKRequest("demo", rig.tk)

	// Every collision lands on the session limit and must shed, not
	// queue.
	const (
		workers  = 8
		attempts = 3
	)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		ok        int
		shed      int
		unknown   []error
		firstShed = make(chan struct{})
		shedOnce  sync.Once
	)
	run := func() {
		defer wg.Done()
		for a := 0; a < attempts; a++ {
			_, err := rig.dc.Execute(ctx, req)
			mu.Lock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, sectopk.ErrOverloaded):
				shed++
				shedOnce.Do(func() { close(firstShed) })
			default:
				unknown = append(unknown, err)
			}
			mu.Unlock()
		}
	}
	link.armed.Store(true)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go run()
	}
	select {
	case <-firstShed:
	case <-time.After(30 * time.Second):
		t.Error("no worker was shed in 30 s while an admitted query held the one session slot")
	}
	release()
	wg.Wait()

	if len(unknown) > 0 {
		t.Fatalf("non-typed errors under overload: %v", unknown)
	}
	if ok == 0 {
		t.Fatal("no request completed under overload")
	}
	if shed == 0 {
		t.Fatalf("no request shed: %d workers x %d attempts against limit 1 all fit", workers, attempts)
	}
	// A shed request released everything it held: after the load stops,
	// one more request must be admitted straight away.
	if _, err := rig.dc.Execute(ctx, req); err != nil {
		t.Fatalf("post-overload request failed: %v", err)
	}

	rig.close()
	stopS2()
	waitForGoroutines(t, baseline)
}

// TestTenantLimitsIsolation serves two tenants over real TCP from one
// data cloud: "bronze" behind a one-burst trickle rate, "gold"
// unlimited. The rate-limited tenant must shed with typed ErrOverloaded
// while every query from the unlimited tenant succeeds — admission
// pressure from one tenant cannot leak into another's budget.
func TestTenantLimitsIsolation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rig := newOverloadRig(t, stackSpec{opts: []sectopk.Option{sectopk.WithTenantLimits(map[string]sectopk.Rate{
		"bronze": {PerSecond: 0.05, Burst: 1}, // one query, then ~20s to the next token
	})}})
	ctx := context.Background()
	addr, stop := serveClients(t, rig.dc)
	defer stop()

	gold, err := sectopk.Dial(ctx, addr, sectopk.WithTenant("gold"))
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	bronze, err := sectopk.Dial(ctx, addr, sectopk.WithTenant("bronze"),
		sectopk.WithRetry(sectopk.RetryPolicy{MaxAttempts: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer bronze.Close()

	req := sectopk.TopKRequest("demo", rig.tk)
	const queries = 3
	var wg sync.WaitGroup
	goldErrs := make([]error, queries)
	bronzeErrs := make([]error, queries)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < queries; i++ {
			_, goldErrs[i] = gold.Execute(ctx, req)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < queries; i++ {
			_, bronzeErrs[i] = bronze.Execute(ctx, req)
		}
	}()
	wg.Wait()

	for i, err := range goldErrs {
		if err != nil {
			t.Errorf("gold query %d failed despite no limit: %v", i, err)
		}
	}
	bronzeShed := 0
	for i, err := range bronzeErrs {
		if err == nil {
			continue
		}
		if !errors.Is(err, sectopk.ErrOverloaded) {
			t.Errorf("bronze query %d failed non-typed: %v", i, err)
			continue
		}
		bronzeShed++
	}
	// Burst 1 admits at most one bronze query before the trickle refill;
	// the other two must have shed.
	if bronzeShed < queries-1 {
		t.Errorf("bronze shed %d of %d queries, want >= %d", bronzeShed, queries, queries-1)
	}

	gold.Close()
	bronze.Close()
	stop()
	rig.close()
	waitForGoroutines(t, baseline)
}

// TestTenantLimitsPerClusterConnection: a member's cluster listener also
// serves the client plane, and each of its connections keeps the tenant
// its own Hello announced — a later client's Hello (here "gold") must
// not re-bucket an earlier connection's queries ("bronze").
func TestTenantLimitsPerClusterConnection(t *testing.T) {
	rig := newOverloadRig(t, stackSpec{opts: []sectopk.Option{sectopk.WithTenantLimits(map[string]sectopk.Rate{
		"bronze": {PerSecond: 0.05, Burst: 1},
	})}})
	ctx := context.Background()
	l := loopback(t)
	serveOn(t, l, rig.dc.ServeCluster)
	addr := l.Addr().String()
	bronze, err := sectopk.Dial(ctx, addr, sectopk.WithTenant("bronze"),
		sectopk.WithRetry(sectopk.RetryPolicy{MaxAttempts: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer bronze.Close()
	gold, err := sectopk.Dial(ctx, addr, sectopk.WithTenant("gold"))
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	const queries = 3
	shed := 0
	for i := 0; i < queries; i++ {
		_, err := bronze.Execute(ctx, sectopk.TopKRequest("demo", rig.tk))
		switch {
		case errors.Is(err, sectopk.ErrOverloaded):
			shed++
		case err != nil:
			t.Errorf("bronze query %d failed non-typed: %v", i, err)
		}
	}
	if shed < queries-1 {
		t.Errorf("bronze shed %d of %d queries on the cluster listener, want >= %d", shed, queries, queries-1)
	}
}
