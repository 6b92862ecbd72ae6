package sectopk_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/secerr"
	"repro/sectopk"
)

// waitForGoroutines polls until the goroutine count drops to at most
// want, tolerating runtime stragglers for a bounded time.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d goroutines alive, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRigTeardownLeaksNoGoroutines constructs a full rig (owner, crypto
// cloud with background nonce pools, data cloud, executed session),
// tears it down, and checks every background goroutine exits — including
// after double-Close and error-path constructions.
func TestRigTeardownLeaksNoGoroutines(t *testing.T) {
	ctx := context.Background()
	baseline := runtime.NumGoroutine()

	for round := 0; round < 2; round++ {
		owner, err := sectopk.NewOwner(testOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		er, err := owner.Encrypt(demoRelation())
		if err != nil {
			t.Fatal(err)
		}
		cc := sectopk.NewCryptoCloud(testOpts()...)
		if err := cc.Register("demo", owner.Keys()); err != nil {
			t.Fatal(err)
		}
		dc := sectopk.NewDataCloud(testOpts()...)
		if err := dc.ConnectLocal(ctx, cc); err != nil {
			t.Fatal(err)
		}
		if err := dc.Host(ctx, "demo", er); err != nil {
			t.Fatal(err)
		}

		// Error paths must not leak the clients/pools they built.
		if err := dc.Host(ctx, "demo", er); err == nil {
			t.Fatal("duplicate Host accepted")
		}
		if err := dc.Host(ctx, "ghost", er); err == nil {
			t.Fatal("unregistered Host accepted")
		}

		tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dc.Execute(ctx, sectopk.TopKRequest("demo", tk)); err != nil {
			t.Fatal(err)
		}

		// Tear down; double-Close must be safe.
		dc.Close()
		dc.Close()
		cc.Close()
		cc.Close()
		waitForGoroutines(t, baseline)
	}
}

// TestServeTeardownLeaksNoGoroutines checks the TCP serving path: when
// the serve context is canceled, the accept loop and every per-connection
// goroutine exit.
func TestServeTeardownLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
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
	if err := cc.Register("demo", owner.Keys()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stopServe := context.WithCancel(ctx)
	serveDone := make(chan error, 1)
	go func() { serveDone <- cc.Serve(serveCtx, l) }()

	dc := sectopk.NewDataCloud(testOpts()...)
	if err := dc.Dial(ctx, l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := dc.Host(ctx, "demo", er); err != nil {
		t.Fatal(err)
	}
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Execute(ctx, sectopk.TopKRequest("demo", tk)); err != nil {
		t.Fatal(err)
	}

	dc.Close()
	stopServe()
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
	cc.Close()
	waitForGoroutines(t, baseline)
}

// TestRegistryConcurrentUse drives one data cloud's registry from every
// side at once — Host* calls contending for the same ids, Execute on all
// three workloads, Hosted, and a Close landing mid-flight. Under -race it
// is the registry's data-race check; beyond that every failure must be a
// coded refusal (a clash, the closed data cloud, or the link torn from
// under an in-flight round), and no S2 client may outlive the Close — its
// nonce-pool fillers would keep the goroutine count above the baseline.
func TestRegistryConcurrentUse(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r := newFullRig(t)
	ctx := context.Background()
	for _, id := range []string{"a", "b"} {
		if err := r.cc.Register(id, r.owner.Keys()); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := r.owner.Token(r.er, sectopk.Query{Attrs: []int{0, 1}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	jtk, err := r.jowner.Token(r.jr1, r.jr2, demoJoinQuery())
	if err != nil {
		t.Fatal(err)
	}
	ktk, err := r.owner.KNNToken(r.ker, sectopk.KNNQuery{Point: []int64{5, 5, 5}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := r.er.Subset(0)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 4
	var wg sync.WaitGroup
	answered := make(chan struct{}, 3*rounds)
	check := func(what string, err error) {
		var coded *secerr.Error
		if err != nil && !errors.As(err, &coded) {
			t.Errorf("%s failed uncoded: %v", what, err)
		}
	}
	spawn := func(what string, op func(id string) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, id := range []string{"a", "b", "topk"} {
					check(what, op(id))
				}
			}
		}()
	}
	// Three kinds race for "a" and "b" (one wins each, the rest clash) and
	// all clash with the hosted "topk".
	spawn("Host", func(id string) error { return r.dc.Host(ctx, id, r.er) })
	spawn("HostKNN", func(id string) error { return r.dc.HostKNN(ctx, id, r.ker) })
	spawn("HostShards", func(id string) error { return r.dc.HostShards(ctx, id, sub) })
	spawn("Hosted", func(string) error { r.dc.Hosted(); return nil })
	for what, req := range map[string]sectopk.Request{
		"Execute topk": sectopk.TopKRequest("topk", tk),
		"Execute join": sectopk.JoinRequest("join", jtk),
		"Execute knn":  sectopk.KNNRequest("knn", ktk),
	} {
		what, req := what, req
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := r.dc.Execute(ctx, req)
				check(what, err)
				if err == nil {
					answered <- struct{}{}
				}
			}
		}()
	}
	// Close once queries are demonstrably flowing, with more still to come.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-answered
		r.dc.Close()
	}()
	wg.Wait()
	if got := r.dc.Hosted(); len(got) != 0 {
		t.Errorf("Hosted() after Close = %v, want empty", got)
	}
	r.cc.Close()
	waitForGoroutines(t, baseline)
}
