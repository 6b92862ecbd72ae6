package sectopk_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/sectopk"
)

// joinRelations returns a small pair with matching join-attribute values
// and distinct top-k scores, so revealed results are order-deterministic.
func joinRelations() (*sectopk.Relation, *sectopk.Relation) {
	r1 := &sectopk.Relation{Name: "r1", Rows: [][]int64{
		{1, 10, 2},
		{2, 8, 3},
		{3, 5, 1},
		{1, 7, 4},
	}}
	r2 := &sectopk.Relation{Name: "r2", Rows: [][]int64{
		{1, 6, 9},
		{2, 2, 2},
		{4, 1, 1},
		{3, 3, 3},
	}}
	return r1, r2
}

func demoJoinQuery() sectopk.JoinQuery {
	return sectopk.JoinQuery{
		JoinAttr1: 0, JoinAttr2: 0,
		ScoreAttr1: 1, ScoreAttr2: 1,
		Project1: []int{0, 2}, Project2: []int{2},
		K: 2,
	}
}

// fullRig hosts all three workloads on one data cloud: "topk" (the demo
// relation), "join" (the join pair), and "knn" (the demo relation as a
// kNN record store).
type fullRig struct {
	owner    *sectopk.Owner
	jowner   *sectopk.JoinOwner
	cc       *sectopk.CryptoCloud
	dc       *sectopk.DataCloud
	er       *sectopk.EncryptedRelation
	jr1, jr2 *sectopk.EncryptedJoinRelation
	ker      *sectopk.EncryptedKNNRelation
}

func newFullRig(t testing.TB, opts ...sectopk.Option) *fullRig {
	t.Helper()
	ctx := context.Background()
	owner, err := sectopk.NewOwner(testOpts(opts...)...)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	jowner, err := sectopk.NewJoinOwner(testOpts(opts...)...)
	if err != nil {
		t.Fatalf("NewJoinOwner: %v", err)
	}
	er, err := owner.Encrypt(demoRelation())
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	ker, err := owner.EncryptKNN(demoRelation())
	if err != nil {
		t.Fatalf("EncryptKNN: %v", err)
	}
	j1, j2 := joinRelations()
	jr1, err := jowner.Encrypt(j1)
	if err != nil {
		t.Fatalf("join Encrypt r1: %v", err)
	}
	jr2, err := jowner.Encrypt(j2)
	if err != nil {
		t.Fatalf("join Encrypt r2: %v", err)
	}
	cc := sectopk.NewCryptoCloud(testOpts(opts...)...)
	t.Cleanup(cc.Close)
	if err := cc.Register("topk", owner.Keys()); err != nil {
		t.Fatalf("Register topk: %v", err)
	}
	if err := cc.Register("knn", owner.Keys()); err != nil {
		t.Fatalf("Register knn: %v", err)
	}
	if err := cc.Register("join", jowner.Keys()); err != nil {
		t.Fatalf("Register join: %v", err)
	}
	dc := sectopk.NewDataCloud(testOpts(opts...)...)
	t.Cleanup(dc.Close)
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatalf("ConnectLocal: %v", err)
	}
	if err := dc.Host(ctx, "topk", er); err != nil {
		t.Fatalf("Host: %v", err)
	}
	if err := dc.HostJoin(ctx, "join", jr1, jr2); err != nil {
		t.Fatalf("HostJoin: %v", err)
	}
	if err := dc.HostKNN(ctx, "knn", ker); err != nil {
		t.Fatalf("HostKNN: %v", err)
	}
	return &fullRig{owner: owner, jowner: jowner, cc: cc, dc: dc, er: er, jr1: jr1, jr2: jr2, ker: ker}
}

// serveClients starts the client plane on a loopback TCP listener and
// returns its address plus a stop function that waits for the serving
// loop to exit.
func serveClients(t testing.TB, dc *sectopk.DataCloud) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
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
		case <-time.After(5 * time.Second):
			t.Fatal("ServeClients did not return after context cancellation")
		}
	}
	t.Cleanup(stop)
	return l.Addr().String(), stop
}

// TestExecuteUnified runs all three workloads through the single
// DataCloud.Execute entry point and checks each against its plaintext
// oracle, then every (hosted kind, workload) pair that must be refused.
func TestExecuteUnified(t *testing.T) {
	r := newFullRig(t)
	ctx := context.Background()

	tk, err := r.owner.Token(r.er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := r.dc.Execute(ctx, sectopk.TopKRequest("topk", tk, sectopk.WithHalting(sectopk.HaltingStrict)))
	if err != nil {
		t.Fatalf("Execute topk: %v", err)
	}
	if ans.Workload() != sectopk.WorkloadTopK || ans.TopK == nil {
		t.Fatalf("topk answer has wrong shape: %+v", ans)
	}
	got, err := r.owner.Reveal(r.er, ans.TopK)
	if err != nil {
		t.Fatal(err)
	}
	want := []sectopk.Result{{Object: 2, Score: 18}, {Object: 1, Score: 16}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unified topk = %+v, want %+v", got, want)
	}
	if ans.Traffic.Rounds == 0 {
		t.Fatal("topk answer recorded no traffic")
	}

	j1, j2 := joinRelations()
	jq := demoJoinQuery()
	jtk, err := r.jowner.Token(r.jr1, r.jr2, jq)
	if err != nil {
		t.Fatal(err)
	}
	jans, err := r.dc.Execute(ctx, sectopk.JoinRequest("join", jtk))
	if err != nil {
		t.Fatalf("Execute join: %v", err)
	}
	gotJoin, err := r.jowner.Reveal(jans.Join)
	if err != nil {
		t.Fatal(err)
	}
	wantJoin, err := sectopk.PlainTopKJoin(j1, j2, jq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotJoin, wantJoin) {
		t.Fatalf("unified join = %+v, want %+v", gotJoin, wantJoin)
	}

	point := []int64{5, 5, 5}
	ktk, err := r.owner.KNNToken(r.ker, sectopk.KNNQuery{Point: point, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	kans, err := r.dc.Execute(ctx, sectopk.KNNRequest("knn", ktk))
	if err != nil {
		t.Fatalf("Execute knn: %v", err)
	}
	gotKNN, err := r.owner.RevealKNN(r.ker, kans.KNN)
	if err != nil {
		t.Fatal(err)
	}
	wantKNN, err := sectopk.PlainKNN(demoRelation(), point, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotKNN, wantKNN) {
		t.Fatalf("unified knn = %+v, want %+v", gotKNN, wantKNN)
	}

	// The other half of "one entry point": an id hosted as any of the six
	// kinds refuses every workload it does not serve — and a shard subset
	// refuses even its own, it answers only on the cluster plane — with
	// ErrUnknownRelation naming what the id is hosted as.
	six := newSixKindRig(t)
	reqs := map[sectopk.Workload]func(id string) sectopk.Request{
		sectopk.WorkloadTopK: func(id string) sectopk.Request { return sectopk.TopKRequest(id, tk) },
		sectopk.WorkloadJoin: func(id string) sectopk.Request { return sectopk.JoinRequest(id, jtk) },
		sectopk.WorkloadKNN:  func(id string) sectopk.Request { return sectopk.KNNRequest(id, ktk) },
	}
	for kind, id := range six.ids {
		for w, req := range reqs {
			if w == six.serves[kind] && kind != "shard subset" {
				continue
			}
			_, err := six.front.Execute(ctx, req(id))
			if !errors.Is(err, sectopk.ErrUnknownRelation) || !strings.Contains(err.Error(), kind) {
				t.Errorf("%s request against the %s id %q: err = %v, want ErrUnknownRelation naming the kind", w, kind, id, err)
			}
		}
	}
}

// TestExecuteRequestValidation pins the unified surface's error
// taxonomy: malformed sums, workload mismatches, and unknown relations.
func TestExecuteRequestValidation(t *testing.T) {
	r := newFullRig(t)
	ctx := context.Background()
	tk, err := r.owner.Token(r.er, sectopk.Query{Attrs: []int{0}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	ktk, err := r.owner.KNNToken(r.ker, sectopk.KNNQuery{Point: []int64{1, 1, 1}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  sectopk.Request
		want error
	}{
		{"no token", sectopk.Request{Relation: "topk"}, sectopk.ErrInvalidToken},
		{"two tokens", sectopk.Request{Relation: "topk", TopK: tk, KNN: ktk}, sectopk.ErrBadRequest},
		{"no relation", sectopk.Request{TopK: tk}, sectopk.ErrBadRequest},
		{"unknown relation", sectopk.TopKRequest("ghost", tk), sectopk.ErrUnknownRelation},
		{"workload mismatch", sectopk.TopKRequest("knn", tk), sectopk.ErrUnknownRelation},
		{"knn on topk relation", sectopk.KNNRequest("topk", ktk), sectopk.ErrUnknownRelation},
	}
	for _, tc := range cases {
		if _, err := r.dc.Execute(ctx, tc.req); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestClientRemoteEquivalence is the acceptance pin: a sectopk.Client
// connected over real TCP executes a top-k, a top-k join, and a kNN
// request against one DataCloud, and the owner-revealed results are
// identical to the in-process path.
func TestClientRemoteEquivalence(t *testing.T) {
	r := newFullRig(t)
	ctx := context.Background()
	addr, _ := serveClients(t, r.dc)
	client, err := sectopk.Dial(ctx, addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()

	// Top-k: remote vs in-process.
	tk, err := r.owner.Token(r.er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := sectopk.TopKRequest("topk", tk, sectopk.WithMode(sectopk.ModeEliminate), sectopk.WithHalting(sectopk.HaltingStrict))
	remote, err := client.Execute(ctx, req)
	if err != nil {
		t.Fatalf("remote topk: %v", err)
	}
	local, err := r.dc.Execute(ctx, req)
	if err != nil {
		t.Fatalf("local topk: %v", err)
	}
	remoteRev, err := r.owner.Reveal(r.er, remote.TopK)
	if err != nil {
		t.Fatal(err)
	}
	localRev, err := r.owner.Reveal(r.er, local.TopK)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remoteRev, localRev) {
		t.Fatalf("remote topk = %+v, in-process = %+v", remoteRev, localRev)
	}
	if remote.TopK.Depth != local.TopK.Depth || remote.TopK.Halted != local.TopK.Halted {
		t.Fatalf("remote topk metadata (depth=%d halted=%v) differs from local (depth=%d halted=%v)",
			remote.TopK.Depth, remote.TopK.Halted, local.TopK.Depth, local.TopK.Halted)
	}
	if remote.Traffic.Rounds == 0 || remote.Traffic.Bytes == 0 {
		t.Fatalf("remote answer recorded no client-wire traffic: %+v", remote.Traffic)
	}

	// The Qry_Ba parameter p and the depth cap cross the wire too: a
	// batched, depth-capped query answers identically both ways.
	batched := sectopk.TopKRequest("topk", tk, sectopk.WithMode(sectopk.ModeBatched),
		sectopk.WithBatchDepth(tk.K()+1), sectopk.WithMaxDepth(4))
	remoteBa, err := client.Execute(ctx, batched)
	if err != nil {
		t.Fatalf("remote batched topk: %v", err)
	}
	localBa, err := r.dc.Execute(ctx, batched)
	if err != nil {
		t.Fatalf("local batched topk: %v", err)
	}
	remoteBaRev, err := r.owner.Reveal(r.er, remoteBa.TopK)
	if err != nil {
		t.Fatal(err)
	}
	localBaRev, err := r.owner.Reveal(r.er, localBa.TopK)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remoteBaRev, localBaRev) || remoteBa.TopK.Depth != localBa.TopK.Depth ||
		remoteBa.TopK.Halted != localBa.TopK.Halted {
		t.Fatalf("remote batched topk = %+v (depth=%d halted=%v), in-process = %+v (depth=%d halted=%v)",
			remoteBaRev, remoteBa.TopK.Depth, remoteBa.TopK.Halted, localBaRev, localBa.TopK.Depth, localBa.TopK.Halted)
	}
	if localBa.TopK.Depth > 4 {
		t.Fatalf("WithMaxDepth(4) scanned to depth %d", localBa.TopK.Depth)
	}

	// Join: remote vs in-process.
	jq := demoJoinQuery()
	jtk, err := r.jowner.Token(r.jr1, r.jr2, jq)
	if err != nil {
		t.Fatal(err)
	}
	remoteJoin, err := client.Execute(ctx, sectopk.JoinRequest("join", jtk))
	if err != nil {
		t.Fatalf("remote join: %v", err)
	}
	localJoin, err := r.dc.Execute(ctx, sectopk.JoinRequest("join", jtk))
	if err != nil {
		t.Fatal(err)
	}
	remoteJRev, err := r.jowner.Reveal(remoteJoin.Join)
	if err != nil {
		t.Fatal(err)
	}
	localJRev, err := r.jowner.Reveal(localJoin.Join)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remoteJRev, localJRev) {
		t.Fatalf("remote join = %+v, in-process = %+v", remoteJRev, localJRev)
	}

	// kNN: remote vs in-process Execute.
	point := []int64{5, 5, 5}
	ktk, err := r.owner.KNNToken(r.ker, sectopk.KNNQuery{Point: point, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	remoteKNN, err := client.Execute(ctx, sectopk.KNNRequest("knn", ktk))
	if err != nil {
		t.Fatalf("remote knn: %v", err)
	}
	localKNN, err := r.dc.Execute(ctx, sectopk.KNNRequest("knn", ktk))
	if err != nil {
		t.Fatal(err)
	}
	remoteKRev, err := r.owner.RevealKNN(r.ker, remoteKNN.KNN)
	if err != nil {
		t.Fatal(err)
	}
	localKRev, err := r.owner.RevealKNN(r.ker, localKNN.KNN)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remoteKRev, localKRev) {
		t.Fatalf("remote knn = %+v, in-process = %+v", remoteKRev, localKRev)
	}

	// The client accounted for its own wire usage.
	if tr := client.Traffic(); tr.Rounds < 4 {
		t.Fatalf("client traffic counts %d rounds, want >= 4 (hello + three queries)", tr.Rounds)
	}
}

// TestClientErrorsAcrossWire pins that errors reported by the server
// match the same sentinels under errors.Is as in-process failures.
func TestClientErrorsAcrossWire(t *testing.T) {
	r := newFullRig(t)
	ctx := context.Background()
	addr, _ := serveClients(t, r.dc)
	client, err := sectopk.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	tk, err := r.owner.Token(r.er, sectopk.Query{Attrs: []int{0, 1}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Execute(ctx, sectopk.TopKRequest("ghost", tk)); !errors.Is(err, sectopk.ErrUnknownRelation) {
		t.Fatalf("remote unknown relation: err = %v, want ErrUnknownRelation", err)
	}
	if _, err := client.Execute(ctx, sectopk.TopKRequest("join", tk)); !errors.Is(err, sectopk.ErrUnknownRelation) {
		t.Fatalf("remote workload mismatch: err = %v, want ErrUnknownRelation", err)
	}

	// A token issued for a differently-shaped relation must fail
	// validation with the same sentinel remotely as in-process. Querying
	// ALL five attributes makes the failure deterministic: the token's
	// permuted list positions cover [0,5), so at least one always falls
	// outside the hosted 3-attribute relation.
	other, err := sectopk.NewOwner(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := other.Encrypt(&sectopk.Relation{Name: "wide", Rows: [][]int64{
		{1, 2, 3, 4, 5}, {5, 4, 3, 2, 1}, {2, 2, 2, 2, 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	badTk, err := other.Token(wide, sectopk.Query{Attrs: []int{0, 1, 2, 3, 4}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, localErr := r.dc.Execute(ctx, sectopk.TopKRequest("topk", badTk))
	_, remoteErr := client.Execute(ctx, sectopk.TopKRequest("topk", badTk))
	if !errors.Is(localErr, sectopk.ErrInvalidToken) {
		t.Fatalf("in-process invalid token: err = %v, want ErrInvalidToken", localErr)
	}
	if !errors.Is(remoteErr, sectopk.ErrInvalidToken) {
		t.Fatalf("remote invalid token: err = %v, want ErrInvalidToken", remoteErr)
	}

	// A kNN token whose dimensions do not match the hosted store (issued
	// for a 2-attribute store, sent to the 3-attribute one) fails the
	// server-side re-validation with the same sentinel both ways.
	narrow, err := r.owner.EncryptKNN(&sectopk.Relation{Name: "narrow", Rows: [][]int64{
		{1, 2}, {3, 4}, {5, 6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mismatch, err := r.owner.KNNToken(narrow, sectopk.KNNQuery{Point: []int64{1, 1}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, localErr = r.dc.Execute(ctx, sectopk.KNNRequest("knn", mismatch))
	_, remoteErr = client.Execute(ctx, sectopk.KNNRequest("knn", mismatch))
	if !errors.Is(localErr, sectopk.ErrInvalidToken) {
		t.Fatalf("in-process kNN dimension mismatch: err = %v, want ErrInvalidToken", localErr)
	}
	if !errors.Is(remoteErr, sectopk.ErrInvalidToken) {
		t.Fatalf("remote kNN dimension mismatch: err = %v, want ErrInvalidToken", remoteErr)
	}

	// Query options outside their documented range are refused before
	// admission with the same sentinel both ways: the server validates
	// the integers a peer sent, not just what WithMode can spell.
	for _, tc := range []struct {
		name string
		opts []sectopk.QueryOption
	}{
		{"mode out of range", []sectopk.QueryOption{sectopk.WithMode(sectopk.Mode(7))}},
		{"negative mode", []sectopk.QueryOption{sectopk.WithMode(sectopk.Mode(-1))}},
		{"halting out of range", []sectopk.QueryOption{sectopk.WithHalting(sectopk.Halting(9))}},
		{"negative max depth", []sectopk.QueryOption{sectopk.WithMaxDepth(-1)}},
		{"negative batch depth", []sectopk.QueryOption{sectopk.WithBatchDepth(-3)}},
		{"batch depth below k", []sectopk.QueryOption{sectopk.WithMode(sectopk.ModeBatched), sectopk.WithBatchDepth(1)}},
	} {
		req := sectopk.TopKRequest("topk", tk, tc.opts...)
		_, localErr := r.dc.Execute(ctx, req)
		_, remoteErr := client.Execute(ctx, req)
		if !errors.Is(localErr, sectopk.ErrBadRequest) {
			t.Errorf("in-process %s: err = %v, want ErrBadRequest", tc.name, localErr)
		}
		if !errors.Is(remoteErr, sectopk.ErrBadRequest) {
			t.Errorf("remote %s: err = %v, want ErrBadRequest", tc.name, remoteErr)
		}
	}

	// The request itself failing client-side validation never touches
	// the wire.
	if _, err := client.Execute(ctx, sectopk.Request{Relation: "topk"}); !errors.Is(err, sectopk.ErrInvalidToken) {
		t.Fatalf("empty request: err = %v, want ErrInvalidToken", err)
	}
}

// TestClientConcurrentOverTCP drives several clients with overlapping
// requests over one listener; every answer must reveal to the same
// pinned result (exercises the shedding admission gate — more in-flight
// requests than WithSessionLimit slots, absorbed by client retries —
// and per-connection multiplexing under -race).
func TestClientConcurrentOverTCP(t *testing.T) {
	r := newFullRig(t, sectopk.WithSessionLimit(3))
	ctx := context.Background()
	addr, _ := serveClients(t, r.dc)

	tk, err := r.owner.Token(r.er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []sectopk.Result{{Object: 2, Score: 18}, {Object: 1, Score: 16}}

	const clients = 3
	const perClient = 2
	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		client, err := sectopk.DialRetry(ctx, addr, sectopk.WithRetry(sectopk.RetryPolicy{
			Initial: 5 * time.Millisecond, Max: 100 * time.Millisecond, MaxElapsed: 2 * time.Minute,
		}))
		if err != nil {
			t.Fatalf("DialRetry client %d: %v", c, err)
		}
		defer client.Close()
		for q := 0; q < perClient; q++ {
			wg.Add(1)
			go func(cl *sectopk.Client) {
				defer wg.Done()
				ans, err := cl.Execute(ctx, sectopk.TopKRequest("topk", tk, sectopk.WithHalting(sectopk.HaltingStrict)))
				if err != nil {
					errCh <- err
					return
				}
				got, err := r.owner.Reveal(r.er, ans.TopK)
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errCh <- errors.New("concurrent client revealed wrong result")
				}
			}(client)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestServeClientsTeardownLeaksNoGoroutines checks the client plane's
// lifecycle: canceling the serve context stops the accept loop and every
// per-connection goroutine, client Close is idempotent, and nothing
// lingers after a served query.
func TestServeClientsTeardownLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r := newFullRig(t)
	ctx := context.Background()
	addr, stop := serveClients(t, r.dc)

	tk, err := r.owner.Token(r.er, sectopk.Query{Attrs: []int{0, 1}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		client, err := sectopk.Dial(ctx, addr)
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		if _, err := client.Execute(ctx, sectopk.TopKRequest("topk", tk)); err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
		if err := client.Close(); err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
		if err := client.Close(); err != nil {
			t.Fatalf("double Close %d: %v", i, err)
		}
		// A closed client fails fast with a transport error.
		if _, err := client.Execute(ctx, sectopk.TopKRequest("topk", tk)); !errors.Is(err, sectopk.ErrTransport) {
			t.Fatalf("Execute after Close: err = %v, want ErrTransport", err)
		}
	}

	// One client left open when the server tears down: its next call
	// fails with a transport error instead of hanging.
	open, err := sectopk.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	shortCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := open.Execute(shortCtx, sectopk.TopKRequest("topk", tk)); err == nil {
		t.Fatal("Execute against a stopped server succeeded")
	}
	open.Close()

	r.dc.Close()
	r.cc.Close()
	waitForGoroutines(t, baseline)
}

// TestSessionLimitAllWorkloads pins that the session limit is one
// admission bound across workloads: concurrent join and kNN requests under
// a limit that fits them all answer oracle-correct, none shed.
func TestSessionLimitAllWorkloads(t *testing.T) {
	r := newFullRig(t, sectopk.WithSessionLimit(4))
	ctx := context.Background()

	jq := demoJoinQuery()
	jtk, err := r.jowner.Token(r.jr1, r.jr2, jq)
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := joinRelations()
	wantJoin, err := sectopk.PlainTopKJoin(j1, j2, jq)
	if err != nil {
		t.Fatal(err)
	}
	ktk, err := r.owner.KNNToken(r.ker, sectopk.KNNQuery{Point: []int64{5, 5, 5}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantKNN, err := sectopk.PlainKNN(demoRelation(), []int64{5, 5, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ans, err := r.dc.Execute(ctx, sectopk.JoinRequest("join", jtk))
			if err != nil {
				errCh <- fmt.Errorf("join under session limit: %w", err)
				return
			}
			if got, err := r.jowner.Reveal(ans.Join); err != nil || !reflect.DeepEqual(got, wantJoin) {
				errCh <- fmt.Errorf("join = %+v (err %v), want %+v", got, err, wantJoin)
			}
		}()
		go func() {
			defer wg.Done()
			ans, err := r.dc.Execute(ctx, sectopk.KNNRequest("knn", ktk))
			if err != nil {
				errCh <- fmt.Errorf("knn under session limit: %w", err)
				return
			}
			if got, err := r.owner.RevealKNN(r.ker, ans.KNN); err != nil || !reflect.DeepEqual(got, wantKNN) {
				errCh <- fmt.Errorf("knn = %+v (err %v), want %+v", got, err, wantKNN)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestQueryPlanePersistence round-trips every new artifact through its
// Save/Load pair: join results, kNN relations/tokens/results, and both
// owner bundles — the restored owners must reveal results produced
// before persistence.
func TestQueryPlanePersistence(t *testing.T) {
	r := newFullRig(t)
	ctx := context.Background()
	dir := t.TempDir()

	// Join: execute, persist the encrypted result and the owner, reveal
	// with the restored owner.
	jq := demoJoinQuery()
	jtk, err := r.jowner.Token(r.jr1, r.jr2, jq)
	if err != nil {
		t.Fatal(err)
	}
	jans, err := r.dc.Execute(ctx, sectopk.JoinRequest("join", jtk))
	if err != nil {
		t.Fatal(err)
	}
	jresPath := filepath.Join(dir, "join-result")
	if err := jans.Join.Save(jresPath); err != nil {
		t.Fatalf("EncryptedJoinResult.Save: %v", err)
	}
	jres, err := sectopk.LoadEncryptedJoinResult(jresPath)
	if err != nil {
		t.Fatalf("LoadEncryptedJoinResult: %v", err)
	}
	jownerPath := filepath.Join(dir, "join-owner")
	if err := r.jowner.Save(jownerPath); err != nil {
		t.Fatalf("JoinOwner.Save: %v", err)
	}
	jowner2, err := sectopk.LoadJoinOwner(jownerPath)
	if err != nil {
		t.Fatalf("LoadJoinOwner: %v", err)
	}
	gotJoin, err := jowner2.Reveal(jres)
	if err != nil {
		t.Fatalf("restored JoinOwner.Reveal: %v", err)
	}
	j1, j2 := joinRelations()
	wantJoin, err := sectopk.PlainTopKJoin(j1, j2, jq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotJoin, wantJoin) {
		t.Fatalf("restored join reveal = %+v, want %+v", gotJoin, wantJoin)
	}

	// kNN: persist the relation, token, result, and owner; a restored
	// owner must reveal a result produced by the original (the digest
	// key travels in the bundle).
	point := []int64{5, 5, 5}
	ktk, err := r.owner.KNNToken(r.ker, sectopk.KNNQuery{Point: point, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ktkPath := filepath.Join(dir, "knn-token")
	if err := ktk.Save(ktkPath); err != nil {
		t.Fatalf("KNNToken.Save: %v", err)
	}
	ktk2, err := sectopk.LoadKNNToken(ktkPath)
	if err != nil {
		t.Fatalf("LoadKNNToken: %v", err)
	}
	if ktk2.K() != 2 {
		t.Fatalf("restored kNN token k = %d, want 2", ktk2.K())
	}
	kerPath := filepath.Join(dir, "knn-relation")
	if err := r.ker.Save(kerPath); err != nil {
		t.Fatalf("EncryptedKNNRelation.Save: %v", err)
	}
	ker2, err := sectopk.LoadEncryptedKNNRelation(kerPath)
	if err != nil {
		t.Fatalf("LoadEncryptedKNNRelation: %v", err)
	}
	if ker2.Rows() != r.ker.Rows() || ker2.Attributes() != r.ker.Attributes() || ker2.Name() != r.ker.Name() {
		t.Fatalf("restored kNN relation shape %s %dx%d differs", ker2.Name(), ker2.Rows(), ker2.Attributes())
	}
	kans, err := r.dc.Execute(ctx, sectopk.KNNRequest("knn", ktk2))
	if err != nil {
		t.Fatalf("Execute with restored kNN token: %v", err)
	}
	kresPath := filepath.Join(dir, "knn-result")
	if err := kans.KNN.Save(kresPath); err != nil {
		t.Fatalf("EncryptedKNNResult.Save: %v", err)
	}
	kres, err := sectopk.LoadEncryptedKNNResult(kresPath)
	if err != nil {
		t.Fatalf("LoadEncryptedKNNResult: %v", err)
	}
	ownerPath := filepath.Join(dir, "owner")
	if err := r.owner.Save(ownerPath); err != nil {
		t.Fatalf("Owner.Save: %v", err)
	}
	owner2, err := sectopk.LoadOwner(ownerPath)
	if err != nil {
		t.Fatalf("LoadOwner: %v", err)
	}
	gotKNN, err := owner2.RevealKNN(ker2, kres)
	if err != nil {
		t.Fatalf("restored Owner.RevealKNN: %v", err)
	}
	wantKNN, err := sectopk.PlainKNN(demoRelation(), point, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotKNN, wantKNN) {
		t.Fatalf("restored knn reveal = %+v, want %+v", gotKNN, wantKNN)
	}
}
