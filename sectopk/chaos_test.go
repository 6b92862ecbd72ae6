package sectopk_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/secerr"
	"repro/sectopk"
)

// The chaos suite drives real queries through fault-injected transports
// (internal/faultnet) and checks the failure-model invariant end to end:
// every query either completes with the correct revealed answer or fails
// fast with a typed secerr code — no hangs, no goroutine leaks, no wrong
// results. Schedules are seed-derived, so a failure reproduces from the
// seed printed with it; the CI chaos job pins a seed matrix via
// SECTOPK_CHAOS_SEEDS (comma-separated int64s).

// chaosSeeds returns the seed matrix: SECTOPK_CHAOS_SEEDS when set, else
// a small default that keeps `go test` fast.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("SECTOPK_CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("SECTOPK_CHAOS_SEEDS: bad seed %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// chaosRig is the demo relation's stack, hosted as "topk", plus a pinned
// query, its token and its plaintext answer, kept small so each seed's
// run is cheap.
type chaosRig struct {
	*stack
	q    sectopk.Query
	tk   *sectopk.Token
	want []sectopk.Result
}

func newChaosRig(t *testing.T, spec stackSpec) *chaosRig {
	t.Helper()
	spec.id = "topk"
	st := newStack(t, spec)
	q := sectopk.Query{Attrs: []int{0, 1, 2}, K: 2}
	return &chaosRig{
		stack: st, q: q, tk: st.token(t, q),
		want: []sectopk.Result{{Object: 2, Score: 18}, {Object: 1, Score: 16}},
	}
}

// warm runs one fault-free query through the rig's data cloud. A party's
// nonce-pool fillers start with its first encryption and run until its
// Close, so the parties that outlive a subtest — the rig's clouds — must
// have theirs running before a subtest counts goroutines: whatever
// waitForGoroutines then finds alive belongs to something the subtest
// built itself and did not close.
func (r *chaosRig) warm(t *testing.T) {
	t.Helper()
	if got := runSession(t, r.owner, r.dc, "topk", r.er, r.q); !reflect.DeepEqual(got, r.want) {
		t.Fatalf("warm-up query revealed %v, want %v", got, r.want)
	}
}

// checkAnswer enforces the chaos invariant on one finished query: a nil
// error must reveal to the pinned answer; a failure must carry a typed
// secerr code (never an untyped/internal one, never a deadline blown
// while blocked — that would be a hang dressed up as an error).
func (r *chaosRig) checkAnswer(t *testing.T, res *sectopk.EncryptedResult, err error, injected func() string) (completed bool) {
	t.Helper()
	if err == nil {
		got, rerr := r.owner.Reveal(r.er, res)
		if rerr != nil {
			t.Fatalf("Reveal: %v\ninjected: %s", rerr, injected())
		}
		if !reflect.DeepEqual(got, r.want) {
			t.Fatalf("revealed %v, want %v\ninjected: %s", got, r.want, injected())
		}
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query hung until its deadline: %v\ninjected: %s", err, injected())
	}
	if code := secerr.CodeOf(err); code == secerr.CodeInternal {
		t.Fatalf("query failed untyped: %v\ninjected: %s", err, injected())
	}
	return false
}

// chaosProfile is the convergent fault mix: resets and short delays, no
// stalls (an undeadlined stall models a black hole; the bounded-stall
// behavior is proven in faultnet's own tests), with a tail of fault-free
// operations so persistently retried runs terminate.
func chaosProfile() faultnet.Profile {
	return faultnet.Profile{
		Ops:         60,
		Rate:        0.1,
		Kinds:       []faultnet.Kind{faultnet.KindReset, faultnet.KindDelay},
		Delay:       2 * time.Millisecond,
		PersistRate: 0.2,
	}
}

// chaosListener listens on loopback behind a faultnet.Listener: the
// i-th accepted connection gets its own schedule derived from the seed,
// so a re-dial after a reset faces fresh (deterministic) faults.
// injected lists every fault triggered so far, per connection.
func chaosListener(t *testing.T, seed int64) (l net.Listener, injected func() string) {
	t.Helper()
	raw := loopback(t)
	var mu sync.Mutex
	var scheds []*faultnet.Schedule
	l = &faultnet.Listener{Listener: raw, NewSchedule: func(i int) *faultnet.Schedule {
		s := faultnet.Seeded(seed+int64(i)*1021, chaosProfile())
		mu.Lock()
		scheds = append(scheds, s)
		mu.Unlock()
		return s
	}}
	injected = func() string {
		mu.Lock()
		defer mu.Unlock()
		var all []string
		for i, s := range scheds {
			for _, f := range s.Injected() {
				all = append(all, "conn"+strconv.Itoa(i)+": "+f)
			}
		}
		return strings.Join(all, "; ")
	}
	return l, injected
}

// TestChaosS1S2Link injects faults into every S1↔S2 TCP connection the
// crypto cloud accepts, with S1 dialing one attempt at a time, and
// checks every query either completes correctly or fails fast typed,
// with nothing leaked.
func TestChaosS1S2Link(t *testing.T) {
	rig := newChaosRig(t, stackSpec{})
	rig.warm(t)

	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			l, injected := chaosListener(t, seed)
			stopS2 := serveOn(t, l, rig.cc.Serve)
			connectCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			dc := sectopk.NewDataCloud(testOpts(sectopk.WithRetry(sectopk.RetryPolicy{MaxAttempts: -1}))...)
			err := dc.Dial(connectCtx, l.Addr().String())
			cancel()
			if err == nil {
				err = dc.Host(context.Background(), "topk", rig.er)
			}
			if err != nil {
				// Dial/Host hit an injected fault: must be typed, and
				// nothing may linger.
				if code := secerr.CodeOf(err); code == secerr.CodeInternal {
					t.Fatalf("setup failed untyped: %v\ninjected: %s", err, injected())
				}
				dc.Close()
				stopS2()
				waitForGoroutines(t, baseline)
				return
			}

			completed := 0
			for q := 0; q < 3; q++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				ans, err := dc.Execute(ctx, sectopk.TopKRequest("topk", rig.tk))
				cancel()
				var res *sectopk.EncryptedResult
				if ans != nil {
					res = ans.TopK
				}
				if rig.checkAnswer(t, res, err, injected) {
					completed++
				}
			}
			t.Logf("seed %d: %d/3 queries completed; injected: %s", seed, completed, injected())
			dc.Close()
			stopS2()
			waitForGoroutines(t, baseline)
		})
	}
}

// TestChaosS1S2LinkHeals runs the deployed recovery path with faults on
// every S1↔S2 connection: S1 on the self-healing DataCloud.Dial, a
// remote Client on Dial. S1 never repeats a round — a round lost with
// its link fails its query typed — so every query revealing the right
// answer shows the client's re-execution recovers end to end.
func TestChaosS1S2LinkHeals(t *testing.T) {
	rig := newChaosRig(t, stackSpec{})
	rig.warm(t)
	policy := sectopk.WithRetry(sectopk.RetryPolicy{
		Initial: 2 * time.Millisecond, Max: 50 * time.Millisecond, MaxElapsed: 90 * time.Second,
	})

	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			l, injected := chaosListener(t, seed)
			stopS2 := serveOn(t, l, rig.cc.Serve)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			dc := sectopk.NewDataCloud(testOpts(policy)...)
			defer dc.Close()
			if err := dc.Dial(ctx, l.Addr().String()); err != nil {
				t.Fatalf("DataCloud.Dial: %v\ninjected: %s", err, injected())
			}
			// Hosting is one Hello round: a fault fails it typed, and
			// the next try finds a fresh link.
			for attempt := 0; ; attempt++ {
				err := dc.Host(ctx, "topk", rig.er)
				if err == nil {
					break
				}
				if !errors.Is(err, sectopk.ErrTransport) || attempt >= 20 {
					t.Fatalf("Host: %v\ninjected: %s", err, injected())
				}
			}
			cl := loopback(t)
			stopS1 := serveOn(t, cl, dc.ServeClients)
			client, err := sectopk.Dial(ctx, cl.Addr().String(), policy)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			for q := 0; q < 4; q++ {
				ans, err := client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk))
				if err != nil {
					t.Fatalf("query %d failed despite retries: %v\ninjected: %s", q, err, injected())
				}
				got, err := rig.owner.Reveal(rig.er, ans.TopK)
				if err != nil {
					t.Fatalf("Reveal: %v", err)
				}
				if !reflect.DeepEqual(got, rig.want) {
					t.Fatalf("query %d revealed %v, want %v\ninjected: %s", q, got, rig.want, injected())
				}
			}
			t.Logf("seed %d: 4/4 queries completed; injected: %s", seed, injected())
			client.Close()
			stopS1()
			dc.Close()
			stopS2()
			waitForGoroutines(t, baseline)
		})
	}
}

// TestChaosClientWireWithRetries injects faults into every accepted
// client-plane connection and requires the recovery stack (Dial's
// re-dialing transport + Execute retries) to absorb ALL of them: every
// query must complete with the correct answer.
func TestChaosClientWireWithRetries(t *testing.T) {
	rig := newChaosRig(t, stackSpec{})
	rig.warm(t)

	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			l, injected := chaosListener(t, seed)
			stop := serveOn(t, l, rig.dc.ServeClients)

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			client, err := sectopk.Dial(ctx, l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{
				Initial: 2 * time.Millisecond, Max: 50 * time.Millisecond, MaxElapsed: 90 * time.Second,
			}))
			if err != nil {
				t.Fatalf("Dial: %v\ninjected: %s", err, injected())
			}
			for q := 0; q < 4; q++ {
				ans, err := client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk))
				if err != nil {
					t.Fatalf("query %d failed despite retries: %v\ninjected: %s", q, err, injected())
				}
				got, err := rig.owner.Reveal(rig.er, ans.TopK)
				if err != nil {
					t.Fatalf("Reveal: %v", err)
				}
				if !reflect.DeepEqual(got, rig.want) {
					t.Fatalf("query %d revealed %v, want %v\ninjected: %s", q, got, rig.want, injected())
				}
			}
			t.Logf("seed %d: 4/4 queries completed; injected: %s", seed, injected())
			client.Close()
			stop()
			waitForGoroutines(t, baseline)
		})
	}
}

// TestChaosClientWireWithoutRetries runs the same faulty client plane
// with a one-attempt client (RetryPolicy MaxAttempts -1): queries may
// fail, but only fast and typed — and a fresh dial after a failure must
// restore service.
func TestChaosClientWireWithoutRetries(t *testing.T) {
	rig := newChaosRig(t, stackSpec{})
	rig.warm(t)

	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			l, _ := chaosListener(t, seed)
			stop := serveOn(t, l, rig.dc.ServeClients)

			// dial tolerates typed failures (the preface itself may be hit)
			// but never untyped ones or hangs.
			dial := func() *sectopk.Client {
				for attempt := 0; attempt < 20; attempt++ {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					client, err := sectopk.Dial(ctx, l.Addr().String(),
						sectopk.WithRetry(sectopk.RetryPolicy{MaxAttempts: -1}))
					cancel()
					if err == nil {
						return client
					}
					if errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("Dial hung: %v", err)
					}
					if code := secerr.CodeOf(err); code == secerr.CodeInternal {
						t.Fatalf("Dial failed untyped: %v", err)
					}
				}
				t.Fatal("no dial attempt survived the fault schedule")
				return nil
			}

			client := dial()
			completed, failed := 0, 0
			for q := 0; q < 5; q++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				ans, err := client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk))
				cancel()
				if err != nil {
					if errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("query %d hung: %v", q, err)
					}
					if code := secerr.CodeOf(err); code == secerr.CodeInternal {
						t.Fatalf("query %d failed untyped: %v", q, err)
					}
					failed++
					// The connection may be dead now; service must come
					// back on a fresh one.
					client.Close()
					client = dial()
					continue
				}
				got, err := rig.owner.Reveal(rig.er, ans.TopK)
				if err != nil {
					t.Fatalf("Reveal: %v", err)
				}
				if !reflect.DeepEqual(got, rig.want) {
					t.Fatalf("query %d revealed %v, want %v", q, got, rig.want)
				}
				completed++
			}
			t.Logf("seed %d: %d completed, %d failed typed", seed, completed, failed)
			client.Close()
			stop()
			waitForGoroutines(t, baseline)
		})
	}
}

// TestChaosCancellationMidRetry cancels contexts while the recovery
// stack is mid-backoff: both the dialing phase and the Execute retry
// loop must surface context.Canceled promptly and leak nothing.
func TestChaosCancellationMidRetry(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Reserve an address nothing listens on: every dial attempt fails
	// fast with a typed transport error, so Dial sits in backoff.
	dead := loopback(t)
	deadAddr := dead.Addr().String()
	dead.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := sectopk.Dial(ctx, deadAddr, sectopk.WithRetry(sectopk.RetryPolicy{
		Initial: 500 * time.Millisecond, Max: time.Second, MaxElapsed: 10 * time.Minute,
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Dial after cancel: err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("Dial took %v to notice cancellation", took)
	}
	waitForGoroutines(t, baseline)

	// Execute phase: connect to a live server, then take it away so
	// Execute's retry loop is re-dialing when the cancel lands.
	rig := newChaosRig(t, stackSpec{})
	baseline = runtime.NumGoroutine()

	l := loopback(t)
	stop := serveOn(t, l, rig.dc.ServeClients)
	client, err := sectopk.Dial(context.Background(), l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{
		Initial: 200 * time.Millisecond, Max: time.Second, MaxElapsed: 10 * time.Minute,
	}))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	stop() // the server is gone; retries can only redial and fail

	execCtx, cancelExec := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancelExec()
	}()
	start = time.Now()
	_, err = client.Execute(execCtx, sectopk.TopKRequest("topk", rig.tk))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute after cancel: err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("Execute took %v to notice cancellation", took)
	}
	client.Close()
	waitForGoroutines(t, baseline)
}

// TestOverloadedRoundTripsClientWire floods a session-limited data cloud
// over TCP with a one-attempt client: overflow must come back as
// ErrOverloaded under errors.Is (the typed shed crossed the wire), while
// at least one admitted query completes correctly.
func TestOverloadedRoundTripsClientWire(t *testing.T) {
	rig := newChaosRig(t, stackSpec{opts: []sectopk.Option{sectopk.WithSessionLimit(1)}})
	l := loopback(t)
	serveOn(t, l, rig.dc.ServeClients)
	ctx := context.Background()
	client, err := sectopk.Dial(ctx, l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{MaxAttempts: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const flood = 6
	var wg sync.WaitGroup
	results := make([]error, flood)
	answers := make([]*sectopk.Answer, flood)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], results[i] = client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk))
		}(i)
	}
	wg.Wait()

	completed, shed := 0, 0
	for i, err := range results {
		switch {
		case err == nil:
			got, rerr := rig.owner.Reveal(rig.er, answers[i].TopK)
			if rerr != nil {
				t.Fatalf("Reveal: %v", rerr)
			}
			if !reflect.DeepEqual(got, rig.want) {
				t.Fatalf("request %d revealed %v, want %v", i, got, rig.want)
			}
			completed++
		case errors.Is(err, sectopk.ErrOverloaded):
			shed++
		default:
			t.Fatalf("request %d: err = %v, want success or ErrOverloaded", i, err)
		}
	}
	if completed == 0 {
		t.Fatal("no request was admitted")
	}
	if shed == 0 {
		t.Fatalf("no request shed: %d concurrent against limit 1 all queued", flood)
	}
	t.Logf("%d completed, %d shed with ErrOverloaded over the wire", completed, shed)
}

// hold passes traffic through until armed; from then on every Write on
// its connections waits for release, and the first one to wait closes
// held. It keeps a query in flight for exactly as long as a test needs,
// however fast the query itself is.
type hold struct {
	armed   atomic.Bool
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

// holdListener hands out every accepted connection as a holdConn under
// its one hold.
type holdListener struct {
	net.Listener
	*hold
}

func (l holdListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &holdConn{Conn: conn, hold: l.hold}, nil
}

type holdConn struct {
	net.Conn
	*hold
}

func (c *holdConn) Write(b []byte) (int, error) {
	if c.armed.Load() {
		c.once.Do(func() { close(c.held) })
		<-c.release
	}
	return c.Conn.Write(b)
}

// TestCloseDrainCompletesInFlight checks the graceful-drain contract on
// the data cloud itself: Close under WithDrainTimeout lets the in-flight
// query finish (and its answer reveal correctly) while a request
// arriving during the drain window sheds with ErrOverloaded. S2 holds
// its reply to the query's first round until the drain has been
// observed, so the query is still in flight when Close starts.
func TestCloseDrainCompletesInFlight(t *testing.T) {
	link := &hold{held: make(chan struct{}), release: make(chan struct{})}
	rig := newChaosRig(t, stackSpec{
		connect: dialS2(t, holdListener{Listener: loopback(t), hold: link}, nil),
		opts:    []sectopk.Option{sectopk.WithDrainTimeout(time.Minute)},
	})
	dc := rig.dc
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(link.release) }) }
	t.Cleanup(release) // runs before dc.Close if the test stops early

	l := loopback(t)
	serveOn(t, l, dc.ServeClients)
	ctx := context.Background()
	client, err := sectopk.Dial(ctx, l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{MaxAttempts: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	type outcome struct {
		ans *sectopk.Answer
		err error
	}
	inflight := make(chan outcome, 1)
	link.armed.Store(true)
	go func() {
		ans, err := client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk))
		inflight <- outcome{ans, err}
	}()
	// Wait for the query to be executing, then start the drain.
	select {
	case <-link.held:
	case <-time.After(30 * time.Second):
		t.Fatal("the query never reached S2")
	}
	closeDone := make(chan struct{})
	go func() {
		dc.Close()
		close(closeDone)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !dc.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("data cloud never entered its drain window")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New admissions shed while the drain window is open.
	if _, err := client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk)); !errors.Is(err, sectopk.ErrOverloaded) {
		t.Fatalf("execute during drain: err = %v, want ErrOverloaded", err)
	}

	// The in-flight query still completes with the right answer.
	release()
	select {
	case out := <-inflight:
		if out.err != nil {
			t.Fatalf("in-flight query aborted by drain: %v", out.err)
		}
		got, err := rig.owner.Reveal(rig.er, out.ans.TopK)
		if err != nil {
			t.Fatalf("Reveal: %v", err)
		}
		if !reflect.DeepEqual(got, rig.want) {
			t.Fatalf("revealed %v, want %v", got, rig.want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight query did not finish under drain")
	}
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the in-flight query drained")
	}
	if dc.Connected() {
		t.Fatal("Connected() = true after Close")
	}
}

// flakyListener closes its first failFirst accepted connections before
// the preface can complete, then serves normally — a listener behind a
// just-restarted or still-warming peer.
type flakyListener struct {
	net.Listener
	mu        sync.Mutex
	failFirst int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		reject := l.failFirst > 0
		if reject {
			l.failFirst--
		}
		l.mu.Unlock()
		if !reject {
			return conn, nil
		}
		conn.Close()
	}
}

// TestDialFlakyListener checks Dial rides out a listener that tears
// down its first connections: the backoff re-dials until the listener
// behaves, and the client then works normally.
func TestDialFlakyListener(t *testing.T) {
	rig := newChaosRig(t, stackSpec{})
	l := loopback(t)
	serveOn(t, &flakyListener{Listener: l, failFirst: 2}, rig.dc.ServeClients)

	ctx := context.Background()
	client, err := sectopk.Dial(ctx, l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{
		Initial: 5 * time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: 6,
	}))
	if err != nil {
		t.Fatalf("Dial through flaky listener: %v", err)
	}
	defer client.Close()
	if got := runSession(t, rig.owner, client, "topk", rig.er, rig.q); !reflect.DeepEqual(got, rig.want) {
		t.Fatalf("revealed %v, want %v", got, rig.want)
	}
}

// TestChaosApplyExactlyOnce drives live mutations through a
// fault-injected client wire and pins the mutation plane's exactly-once
// contract: every delta lands exactly once no matter how many times the
// link dies mid-Apply. It is the delta's idempotency key that makes a
// re-issue safe — the client's own retries and the caller's deliberate
// ones alike — so each delta must advance the
// epoch by exactly one, a replay of a landed delta must report the
// recorded epoch without moving the relation, and the post-chaos answers
// must still match the plaintext oracle.
func TestChaosApplyExactlyOnce(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			rng := rand.New(rand.NewSource(seed))
			rig := newMutationRig(t, 2, 8, 3, rng)

			l, injected := chaosListener(t, seed)
			stop := serveOn(t, l, rig.dc.ServeClients)

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			client, err := sectopk.Dial(ctx, l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{
				Initial: 2 * time.Millisecond, Max: 50 * time.Millisecond, MaxElapsed: 90 * time.Second,
			}))
			if err != nil {
				t.Fatalf("Dial: %v\ninjected: %s", err, injected())
			}

			// shipChaos lands one delta through the faulty wire: re-issuing
			// the SAME delta (same idempotency key) until an epoch comes
			// back. A stale failure here would mean the delta applied twice.
			shipChaos := func(d *sectopk.Delta, wantEpoch uint64) {
				t.Helper()
				for attempt := 0; ; attempt++ {
					actx, acancel := context.WithTimeout(ctx, 30*time.Second)
					epoch, err := client.Apply(actx, "mut", d)
					acancel()
					if err == nil {
						if epoch != wantEpoch {
							t.Fatalf("Apply -> epoch %d, want %d (exactly-once violated)\ninjected: %s",
								epoch, wantEpoch, injected())
						}
						if err := rig.mr.Adopt(epoch); err != nil {
							t.Fatalf("Adopt(%d): %v", epoch, err)
						}
						return
					}
					if errors.Is(err, sectopk.ErrRelationStale) {
						t.Fatalf("re-issued delta came back stale — it applied twice: %v\ninjected: %s",
							err, injected())
					}
					if errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("Apply hung until its deadline: %v\ninjected: %s", err, injected())
					}
					if code := secerr.CodeOf(err); code == secerr.CodeInternal {
						t.Fatalf("Apply failed untyped: %v\ninjected: %s", err, injected())
					}
					if attempt >= 20 {
						t.Fatalf("delta never landed after %d re-issues: %v\ninjected: %s",
							attempt, err, injected())
					}
				}
			}

			// One of each mutation class, each chaining onto the last epoch.
			ins := randomRows(rng, 1, 3)
			d, err := rig.mr.InsertRows(ins)
			if err != nil {
				t.Fatal(err)
			}
			shipChaos(d, 2)
			rig.oracle[rig.nextID] = append([]int64(nil), ins[0]...)
			rig.nextID++

			upd := []int64{777, 3, 3}
			if d, err = rig.mr.UpdateScores(map[int][]int64{1: upd}); err != nil {
				t.Fatal(err)
			}
			shipChaos(d, 3)
			rig.oracle[1] = upd

			if d, err = rig.mr.DeleteRows([]int{0}); err != nil {
				t.Fatal(err)
			}
			shipChaos(d, 4)
			delete(rig.oracle, 0)

			// Idempotency key reuse, pinned under faults too: replaying the
			// landed delete reports its recorded epoch, relation unmoved.
			for attempt := 0; ; attempt++ {
				actx, acancel := context.WithTimeout(ctx, 30*time.Second)
				again, err := client.Apply(actx, "mut", d)
				acancel()
				if err == nil {
					if again != 4 {
						t.Fatalf("replay Apply -> epoch %d, want 4\ninjected: %s", again, injected())
					}
					break
				}
				if attempt >= 20 {
					t.Fatalf("replay never answered: %v\ninjected: %s", err, injected())
				}
			}
			if got, err := rig.dc.Epoch("mut"); err != nil || got != 4 {
				t.Fatalf("relation epoch after chaos = (%d, %v), want (4, nil)", got, err)
			}

			// The surviving state still answers per the oracle.
			rig.checkEquivalence(t, []int{0, 1, 2}, 3)
			t.Logf("seed %d: 3 deltas + 1 replay landed exactly once; injected: %s", seed, injected())
			client.Close()
			stop()
			rig.close()
			waitForGoroutines(t, baseline)
		})
	}
}

// TestChaosClusterMemberLinkHeals cuts a front door's link to one member
// in the middle of a query: that query fails typed unavailable, and the
// next one re-dials the member (re-running its cluster Hello) and reveals
// the right answer, with no HostCluster in between.
func TestChaosClusterMemberLinkHeals(t *testing.T) {
	ctx := context.Background()
	// The rig's data cloud hosts nothing: it is the front door.
	rig := newChaosRig(t, stackSpec{opts: []sectopk.Option{sectopk.WithShards(2)}, unhosted: true})
	front := rig.dc
	// Member i hosts shard i; member 1's cluster listener gives its first
	// connection a schedule the test arms once the placement is assembled.
	cut := faultnet.NewSchedule()
	var accepted atomic.Int32
	var addrs []string
	for i := 0; i < 2; i++ {
		var l net.Listener = loopback(t)
		if i == 1 {
			l = &faultnet.Listener{Listener: l, NewSchedule: func(n int) *faultnet.Schedule {
				accepted.Add(1)
				if n == 0 {
					return cut
				}
				return nil
			}}
		}
		m := newMember(t, rig.cc, rig.er, []int{i}, l, sectopk.WithMemberID("m"+strconv.Itoa(i)))
		addrs = append(addrs, m.addr)
	}
	if err := front.HostCluster(ctx, addrs); err != nil {
		t.Fatalf("HostCluster: %v", err)
	}
	// Every operation on member 1's link from here on resets it. The
	// member's read loop already waits in a Read taken before arming, so
	// the first to fail is the one after the query's request arrives.
	for op := 0; op < 1<<10; op++ {
		cut.At(op, faultnet.Fault{Kind: faultnet.KindReset})
	}
	req := sectopk.TopKRequest("topk", rig.tk)
	if _, err := front.Execute(ctx, req); !errors.Is(err, sectopk.ErrUnavailable) {
		t.Fatalf("query over the cut member link: err = %v, want unavailable\ninjected: %v", err, cut.Injected())
	}
	if len(cut.Injected()) == 0 {
		t.Fatal("the member link was never cut")
	}
	if got := runSession(t, rig.owner, front, "topk", rig.er, rig.q); !reflect.DeepEqual(got, rig.want) {
		t.Fatalf("query after the cut revealed %v, want %v", got, rig.want)
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("member 1 accepted %d connections, want 2 (the first and one re-dial)", n)
	}
}

// TestChaosFrontDoorS2LinkHeals cuts a front door's link to its crypto
// cloud while the front door forwards a kNN relation that crypto cloud
// does not register. The re-dial re-proves only the relations the front
// door runs rounds for, so the query over the cut link fails typed and
// the next one heals the link and reveals the right answer.
func TestChaosFrontDoorS2LinkHeals(t *testing.T) {
	ctx := context.Background()
	// The crypto cloud's listener gives its first connection a schedule
	// the test arms once the placement is assembled. The rig's data cloud
	// dials it and hosts nothing: it is the front door.
	cut := faultnet.NewSchedule()
	var accepted atomic.Int32
	rig := newChaosRig(t, stackSpec{
		opts: []sectopk.Option{sectopk.WithShards(2), sectopk.WithRetry(sectopk.RetryPolicy{MaxAttempts: 2})},
		connect: dialS2(t, &faultnet.Listener{Listener: loopback(t), NewSchedule: func(n int) *faultnet.Schedule {
			accepted.Add(1)
			if n == 0 {
				return cut
			}
			return nil
		}}, nil),
		unhosted: true,
	})
	front := rig.dc
	// The member's crypto cloud registers the kNN relation; the front
	// door's (the rig's) registers only "topk".
	memberCC := sectopk.NewCryptoCloud()
	t.Cleanup(memberCC.Close)
	for _, id := range []string{"topk", "knn"} {
		if err := memberCC.Register(id, rig.owner.Keys()); err != nil {
			t.Fatal(err)
		}
	}
	ker, err := rig.owner.EncryptKNN(demoRelation())
	if err != nil {
		t.Fatal(err)
	}
	member := newMember(t, memberCC, rig.er, []int{0, 1}, nil)
	if err := member.dc.HostKNN(ctx, "knn", ker); err != nil {
		t.Fatal(err)
	}
	if err := front.HostCluster(ctx, []string{member.addr}); err != nil {
		t.Fatalf("HostCluster: %v", err)
	}
	if got := front.ClusterRelations(); !reflect.DeepEqual(got, []string{"knn", "topk"}) {
		t.Fatalf("front door serves %v through the cluster, want [knn topk]", got)
	}
	for op := 0; op < 1<<10; op++ {
		cut.At(op, faultnet.Fault{Kind: faultnet.KindReset})
	}
	req := sectopk.TopKRequest("topk", rig.tk)
	if _, err := front.Execute(ctx, req); !errors.Is(err, sectopk.ErrTransport) {
		t.Fatalf("query over the cut S2 link: err = %v, want a transport error\ninjected: %v", err, cut.Injected())
	}
	if len(cut.Injected()) == 0 {
		t.Fatal("the S2 link was never cut")
	}
	if got := runSession(t, rig.owner, front, "topk", rig.er, rig.q); !reflect.DeepEqual(got, rig.want) {
		t.Fatalf("query after the cut revealed %v, want %v", got, rig.want)
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("the crypto cloud accepted %d connections, want 2 (the first and one re-dial)", n)
	}
}
