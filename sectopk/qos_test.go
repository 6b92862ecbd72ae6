package sectopk_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/sectopk"
)

// overloadRig is the minimal hosted stack the admission tests drive:
// one relation on a data cloud built with the given extra options.
type overloadRig struct {
	owner *sectopk.Owner
	cc    *sectopk.CryptoCloud
	dc    *sectopk.DataCloud
	er    *sectopk.EncryptedRelation
	tk    *sectopk.Token
}

func newOverloadRig(t *testing.T, extra ...sectopk.Option) *overloadRig {
	t.Helper()
	ctx := context.Background()
	owner, err := sectopk.NewOwner(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	er, err := owner.Encrypt(demoRelation())
	if err != nil {
		t.Fatal(err)
	}
	cc := sectopk.NewCryptoCloud(testOpts()...)
	t.Cleanup(cc.Close)
	if err := cc.Register("demo", owner.Keys()); err != nil {
		t.Fatal(err)
	}
	dc := sectopk.NewDataCloud(testOpts(extra...)...)
	t.Cleanup(dc.Close)
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if err := dc.Host(ctx, "demo", er); err != nil {
		t.Fatal(err)
	}
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &overloadRig{owner: owner, cc: cc, dc: dc, er: er, tk: tk}
}

// TestSessionLimitSustainedOverload drives a WithSessionLimit(1) data
// cloud with sustained concurrent load. The contract under overload: excess requests shed
// immediately with typed ErrOverloaded (no unbounded queueing), admitted
// requests complete, and teardown leaves no goroutine behind.
func TestSessionLimitSustainedOverload(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rig := newOverloadRig(t, sectopk.WithSessionLimit(1))
	ctx := context.Background()
	req := sectopk.TopKRequest("demo", rig.tk)

	// Every collision lands on the session limit and must shed, not
	// queue.
	const (
		workers  = 8
		attempts = 3
	)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		ok      int
		shed    int
		unknown []error
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
			default:
				unknown = append(unknown, err)
			}
			mu.Unlock()
		}
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go run()
	}
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

	rig.dc.Close()
	rig.cc.Close()
	waitForGoroutines(t, baseline)
}

// TestTenantLimitsIsolation serves two tenants over real TCP from one
// data cloud: "bronze" behind a one-burst trickle rate, "gold"
// unlimited. The rate-limited tenant must shed with typed ErrOverloaded
// while every query from the unlimited tenant succeeds — admission
// pressure from one tenant cannot leak into another's budget.
func TestTenantLimitsIsolation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rig := newOverloadRig(t, sectopk.WithTenantLimits(map[string]sectopk.Rate{
		"bronze": {PerSecond: 0.05, Burst: 1}, // one query, then ~20s to the next token
	}))
	ctx := context.Background()
	addr, stop := serveClients(t, rig.dc)
	defer stop()

	gold, err := sectopk.Dial(ctx, addr, sectopk.WithTenant("gold"))
	if err != nil {
		t.Fatal(err)
	}
	defer gold.Close()
	bronze, err := sectopk.Dial(ctx, addr, sectopk.WithTenant("bronze"))
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
	rig.dc.Close()
	rig.cc.Close()
	waitForGoroutines(t, baseline)
}

// TestTenantLimitsPerClusterConnection: a member's cluster listener also
// serves the client plane, and each of its connections keeps the tenant
// its own Hello announced — a later client's Hello (here "gold") must
// not re-bucket an earlier connection's queries ("bronze").
func TestTenantLimitsPerClusterConnection(t *testing.T) {
	rig := newOverloadRig(t, sectopk.WithTenantLimits(map[string]sectopk.Rate{
		"bronze": {PerSecond: 0.05, Burst: 1},
	}))
	ctx := context.Background()
	addr, _ := serveCluster(t, rig.dc)
	bronze, err := sectopk.Dial(ctx, addr, sectopk.WithTenant("bronze"))
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
