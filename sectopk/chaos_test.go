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

// chaosRig is a single-relation owner/S2/S1 stack plus a pinned query
// and its plaintext answer, kept small so each seed's run is cheap.
type chaosRig struct {
	owner *sectopk.Owner
	cc    *sectopk.CryptoCloud
	er    *sectopk.EncryptedRelation
	tk    *sectopk.Token
	want  []sectopk.Result
}

func newChaosRig(t *testing.T, opts ...sectopk.Option) *chaosRig {
	t.Helper()
	owner, err := sectopk.NewOwner(testOpts(opts...)...)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	er, err := owner.Encrypt(demoRelation())
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	cc := sectopk.NewCryptoCloud(testOpts(opts...)...)
	t.Cleanup(cc.Close)
	if err := cc.Register("topk", owner.Keys()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	return &chaosRig{
		owner: owner, cc: cc, er: er, tk: tk,
		want: []sectopk.Result{{Object: 2, Score: 18}, {Object: 1, Score: 16}},
	}
}

// newDataCloud builds a data cloud wired for this rig's relation.
func (r *chaosRig) newDataCloud(t *testing.T, connect func(dc *sectopk.DataCloud) error, opts ...sectopk.Option) *sectopk.DataCloud {
	t.Helper()
	dc := sectopk.NewDataCloud(testOpts(opts...)...)
	if err := connect(dc); err != nil {
		dc.Close()
		t.Fatalf("connecting data cloud: %v", err)
	}
	if err := dc.Host(context.Background(), "topk", r.er); err != nil {
		dc.Close()
		t.Fatalf("Host: %v", err)
	}
	return dc
}

// warm runs one fault-free query through dc. A party's nonce-pool fillers
// start with its first encryption and run until its Close, so the parties
// that outlive a subtest — the rig's crypto cloud, and dc when subtests
// share it — must have theirs running before a subtest counts goroutines:
// whatever waitForGoroutines then finds alive belongs to something the
// subtest built itself and did not close.
func (r *chaosRig) warm(t *testing.T, dc *sectopk.DataCloud) {
	t.Helper()
	ans, err := dc.Execute(context.Background(), sectopk.TopKRequest("topk", r.tk, sectopk.WithHalting(sectopk.HaltingStrict)))
	if err != nil {
		t.Fatalf("warm-up query: %v", err)
	}
	got, err := r.owner.Reveal(r.er, ans.TopK)
	if err != nil {
		t.Fatalf("Reveal: %v", err)
	}
	if !reflect.DeepEqual(got, r.want) {
		t.Fatalf("warm-up query revealed %v, want %v", got, r.want)
	}
}

// checkAnswer enforces the chaos invariant on one finished query: a nil
// error must reveal to the pinned answer; a failure must carry a typed
// secerr code (never an untyped/internal one, never a deadline blown
// while blocked — that would be a hang dressed up as an error).
func (r *chaosRig) checkAnswer(t *testing.T, res *sectopk.EncryptedResult, err error, sched *faultnet.Schedule) (completed bool) {
	t.Helper()
	if err == nil {
		got, rerr := r.owner.Reveal(r.er, res)
		if rerr != nil {
			t.Fatalf("Reveal: %v\ninjected: %s", rerr, strings.Join(sched.Injected(), "; "))
		}
		if !reflect.DeepEqual(got, r.want) {
			t.Fatalf("revealed %v, want %v\ninjected: %s", got, r.want, strings.Join(sched.Injected(), "; "))
		}
		return true
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query hung until its deadline: %v\ninjected: %s", err, strings.Join(sched.Injected(), "; "))
	}
	if code := secerr.CodeOf(err); code == secerr.CodeInternal {
		t.Fatalf("query failed untyped: %v\ninjected: %s", err, strings.Join(sched.Injected(), "; "))
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

// TestChaosS1S2Link injects faults into the S1↔S2 TCP connection (under
// the multiplexed framing, no recovery layers) and checks every query
// either completes correctly or fails fast typed, with nothing leaked.
func TestChaosS1S2Link(t *testing.T) {
	rig := newChaosRig(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- rig.cc.Serve(serveCtx, l) }()
	t.Cleanup(func() {
		stopServe()
		select {
		case <-serveDone:
		case <-time.After(10 * time.Second):
			t.Error("crypto cloud Serve did not stop")
		}
	})

	// Every seed builds and closes its own data cloud; the crypto cloud is
	// the one party the seeds share.
	local := rig.newDataCloud(t, func(dc *sectopk.DataCloud) error {
		return dc.ConnectLocal(context.Background(), rig.cc)
	})
	rig.warm(t, local)
	local.Close()

	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			sched := faultnet.Seeded(seed, chaosProfile())
			raw, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			connectCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			dc := sectopk.NewDataCloud(testOpts()...)
			err = dc.Connect(connectCtx, faultnet.WrapConn(raw, sched))
			cancel()
			if err == nil {
				err = dc.Host(context.Background(), "topk", rig.er)
			}
			if err != nil {
				// Connect/Host hit an injected fault: must be typed, and
				// nothing may linger.
				if code := secerr.CodeOf(err); code == secerr.CodeInternal {
					t.Fatalf("setup failed untyped: %v\ninjected: %s", err, strings.Join(sched.Injected(), "; "))
				}
				raw.Close()
				dc.Close()
				waitForGoroutines(t, baseline)
				return
			}

			completed := 0
			for q := 0; q < 3; q++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				ans, err := dc.Execute(ctx, sectopk.TopKRequest("topk", rig.tk, sectopk.WithHalting(sectopk.HaltingStrict)))
				cancel()
				var res *sectopk.EncryptedResult
				if ans != nil {
					res = ans.TopK
				}
				if rig.checkAnswer(t, res, err, sched) {
					completed++
				}
			}
			t.Logf("seed %d: %d/3 queries completed; injected: %s",
				seed, completed, strings.Join(sched.Injected(), "; "))
			dc.Close()
			waitForGoroutines(t, baseline)
		})
	}
}

// serveClientsOn starts the client plane on the given listener and
// returns a stop function (idempotent, waits for the serving loop).
func serveClientsOn(t *testing.T, dc *sectopk.DataCloud, l net.Listener) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- dc.ServeClients(ctx, l) }()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeClients did not return after context cancellation")
		}
	}
	t.Cleanup(stop)
	return stop
}

// TestChaosClientWireWithRetries injects faults into every accepted
// client-plane connection and requires the recovery stack (DialRetry's
// re-dialing transport + Execute retries) to absorb ALL of them: every
// query must complete with the correct answer.
func TestChaosClientWireWithRetries(t *testing.T) {
	rig := newChaosRig(t)
	dc := rig.newDataCloud(t, func(dc *sectopk.DataCloud) error {
		return dc.ConnectLocal(context.Background(), rig.cc)
	})
	t.Cleanup(dc.Close)
	rig.warm(t, dc)

	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var mu sync.Mutex
			var scheds []*faultnet.Schedule
			injected := func() string {
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
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fl := &faultnet.Listener{Listener: l, NewSchedule: func(i int) *faultnet.Schedule {
				// Distinct per-connection streams derived from the seed, so
				// a re-dial after a reset faces fresh (deterministic) faults.
				s := faultnet.Seeded(seed+int64(i)*1021, chaosProfile())
				mu.Lock()
				scheds = append(scheds, s)
				mu.Unlock()
				return s
			}}
			stop := serveClientsOn(t, dc, fl)

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			client, err := sectopk.DialRetry(ctx, l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{
				Initial: 2 * time.Millisecond, Max: 50 * time.Millisecond, MaxElapsed: 90 * time.Second,
			}))
			if err != nil {
				t.Fatalf("DialRetry: %v\ninjected: %s", err, injected())
			}
			for q := 0; q < 4; q++ {
				ans, err := client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk, sectopk.WithHalting(sectopk.HaltingStrict)))
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
// with a plain (non-retrying) client: queries may fail, but only fast
// and typed — and a fresh dial after a failure must restore service.
func TestChaosClientWireWithoutRetries(t *testing.T) {
	rig := newChaosRig(t)
	dc := rig.newDataCloud(t, func(dc *sectopk.DataCloud) error {
		return dc.ConnectLocal(context.Background(), rig.cc)
	})
	t.Cleanup(dc.Close)
	rig.warm(t, dc)

	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var mu sync.Mutex
			var scheds []*faultnet.Schedule
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fl := &faultnet.Listener{Listener: l, NewSchedule: func(i int) *faultnet.Schedule {
				s := faultnet.Seeded(seed+int64(i)*1021, chaosProfile())
				mu.Lock()
				scheds = append(scheds, s)
				mu.Unlock()
				return s
			}}
			stop := serveClientsOn(t, dc, fl)

			// dial tolerates typed failures (the preface itself may be hit)
			// but never untyped ones or hangs.
			dial := func() *sectopk.Client {
				for attempt := 0; attempt < 20; attempt++ {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					client, err := sectopk.Dial(ctx, l.Addr().String())
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
				ans, err := client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk, sectopk.WithHalting(sectopk.HaltingStrict)))
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
	// fast with a typed transport error, so DialRetry sits in backoff.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = sectopk.DialRetry(ctx, deadAddr, sectopk.WithRetry(sectopk.RetryPolicy{
		Initial: 500 * time.Millisecond, Max: time.Second, MaxElapsed: 10 * time.Minute,
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DialRetry after cancel: err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("DialRetry took %v to notice cancellation", took)
	}
	waitForGoroutines(t, baseline)

	// Execute phase: connect to a live server, then take it away so
	// Execute's retry loop is re-dialing when the cancel lands.
	rig := newChaosRig(t)
	dc := rig.newDataCloud(t, func(dc *sectopk.DataCloud) error {
		return dc.ConnectLocal(context.Background(), rig.cc)
	})
	t.Cleanup(dc.Close)
	baseline = runtime.NumGoroutine()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := serveClientsOn(t, dc, l)
	client, err := sectopk.DialRetry(context.Background(), l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{
		Initial: 200 * time.Millisecond, Max: time.Second, MaxElapsed: 10 * time.Minute,
	}))
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
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
// over TCP with a non-retrying client: overflow must come back as
// ErrOverloaded under errors.Is (the typed shed crossed the wire), while
// at least one admitted query completes correctly.
func TestOverloadedRoundTripsClientWire(t *testing.T) {
	rig := newChaosRig(t)
	dc := rig.newDataCloud(t, func(dc *sectopk.DataCloud) error {
		return dc.ConnectLocal(context.Background(), rig.cc)
	}, sectopk.WithSessionLimit(1))
	t.Cleanup(dc.Close)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveClientsOn(t, dc, l)
	ctx := context.Background()
	client, err := sectopk.Dial(ctx, l.Addr().String())
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
			answers[i], results[i] = client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk, sectopk.WithHalting(sectopk.HaltingStrict)))
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

// holdConn passes traffic through until armed; from then on every Write
// waits for release, and the first one to wait closes held. It keeps a
// query in flight for exactly as long as a test needs, however fast the
// query itself is.
type holdConn struct {
	net.Conn
	armed   atomic.Bool
	once    sync.Once
	held    chan struct{}
	release chan struct{}
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
// arriving during the drain window sheds with ErrOverloaded. The query's
// S1↔S2 link holds its first request until the drain has been observed,
// so the query is still in flight when Close starts.
func TestCloseDrainCompletesInFlight(t *testing.T) {
	rig := newChaosRig(t)
	s2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- rig.cc.Serve(serveCtx, s2) }()
	t.Cleanup(func() {
		stopServe()
		<-serveDone
	})
	raw, err := net.Dial("tcp", s2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	link := &holdConn{Conn: raw, held: make(chan struct{}), release: make(chan struct{})}
	dc := rig.newDataCloud(t, func(dc *sectopk.DataCloud) error {
		return dc.Connect(context.Background(), link)
	}, sectopk.WithDrainTimeout(time.Minute))
	t.Cleanup(dc.Close)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(link.release) }) }
	t.Cleanup(release) // runs before dc.Close if the test stops early

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveClientsOn(t, dc, l)
	ctx := context.Background()
	client, err := sectopk.Dial(ctx, l.Addr().String())
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
		ans, err := client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk, sectopk.WithHalting(sectopk.HaltingStrict)))
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

// TestDialRetryFlakyListener checks DialRetry rides out a listener that
// tears down its first connections: the backoff re-dials until the
// listener behaves, and the client then works normally.
func TestDialRetryFlakyListener(t *testing.T) {
	rig := newChaosRig(t)
	dc := rig.newDataCloud(t, func(dc *sectopk.DataCloud) error {
		return dc.ConnectLocal(context.Background(), rig.cc)
	})
	t.Cleanup(dc.Close)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveClientsOn(t, dc, &flakyListener{Listener: l, failFirst: 2})

	ctx := context.Background()
	client, err := sectopk.DialRetry(ctx, l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{
		Initial: 5 * time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: 6,
	}))
	if err != nil {
		t.Fatalf("DialRetry through flaky listener: %v", err)
	}
	defer client.Close()
	ans, err := client.Execute(ctx, sectopk.TopKRequest("topk", rig.tk, sectopk.WithHalting(sectopk.HaltingStrict)))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	got, err := rig.owner.Reveal(rig.er, ans.TopK)
	if err != nil {
		t.Fatalf("Reveal: %v", err)
	}
	if !reflect.DeepEqual(got, rig.want) {
		t.Fatalf("revealed %v, want %v", got, rig.want)
	}
}

// TestChaosApplyExactlyOnce drives live mutations through a
// fault-injected client wire and pins the mutation plane's exactly-once
// contract: every delta lands exactly once no matter how many times the
// link dies mid-Apply. The wire layer never blindly re-issues Apply
// (fail closed); it is the delta's idempotency key that makes the
// caller's deliberate re-issue safe — so each delta must advance the
// epoch by exactly one, a replay of a landed delta must report the
// recorded epoch without moving the relation, and the post-chaos answers
// must still match the plaintext oracle.
func TestChaosApplyExactlyOnce(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			rng := rand.New(rand.NewSource(seed))
			rig := newMutationRig(t, 2, 8, 3, rng)

			var mu sync.Mutex
			var scheds []*faultnet.Schedule
			injected := func() string {
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
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fl := &faultnet.Listener{Listener: l, NewSchedule: func(i int) *faultnet.Schedule {
				s := faultnet.Seeded(seed+int64(i)*1021, chaosProfile())
				mu.Lock()
				scheds = append(scheds, s)
				mu.Unlock()
				return s
			}}
			stop := serveClientsOn(t, rig.dc, fl)

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			client, err := sectopk.DialRetry(ctx, l.Addr().String(), sectopk.WithRetry(sectopk.RetryPolicy{
				Initial: 2 * time.Millisecond, Max: 50 * time.Millisecond, MaxElapsed: 90 * time.Second,
			}))
			if err != nil {
				t.Fatalf("DialRetry: %v\ninjected: %s", err, injected())
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
