package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/nra"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/secerr"
	"repro/internal/transport"
)

type testRig struct {
	scheme *core.Scheme
	server *cloud.Server
	client *cloud.Client
	s1led  *cloud.Ledger
}

var (
	rigOnce sync.Once
	rig     *testRig
)

func getRig(t testing.TB) *testRig {
	t.Helper()
	rigOnce.Do(func() {
		params := core.Params{KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 20}
		scheme, err := core.NewScheme(params)
		if err != nil {
			t.Fatalf("NewScheme: %v", err)
		}
		server, err := cloud.NewServer(scheme.KeyMaterial(), nil)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		s1led := cloud.NewLedger()
		client, err := cloud.NewClient(transport.NewLocal(server, nil), scheme.PublicKey(), s1led)
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		rig = &testRig{scheme: scheme, server: server, client: client, s1led: s1led}
	})
	return rig
}

// correlated builds a perfectly rank-correlated relation with distinct
// per-list and aggregate scores: every list orders the objects the same
// way, so every tracked bound is exact at every depth — the regime where
// sharded and unsharded scans are provably answer- and score-identical.
func correlated(n int) *dataset.Relation {
	rel := &dataset.Relation{Name: "corr"}
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, []int64{int64(3*n - 3*i), int64(2*n - 2*i + 1), int64(n - i + 2)})
	}
	return rel
}

// antiCorrelated builds lists with opposing orders, the adversarial case
// for relaxed halting and for merge bounds. Columns 0 and 1 sum to a
// constant, so the quadratic-residue third column decides the ranking
// (and keeps every aggregate distinct for n <= 12: i² mod 23 is
// injective there).
func antiCorrelated(n int) *dataset.Relation {
	rel := &dataset.Relation{Name: "anti"}
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, []int64{int64(4 * i), int64(4 * (n - 1 - i)), int64(i * i % 23)})
	}
	return rel
}

func reveal(t *testing.T, r *testRig, n int, res *core.QueryResult) []core.RevealedResult {
	t.Helper()
	rev, err := r.scheme.NewRevealer(n)
	if err != nil {
		t.Fatalf("NewRevealer: %v", err)
	}
	out, err := rev.RevealTopK(res.Items)
	if err != nil {
		t.Fatalf("RevealTopK: %v", err)
	}
	return out
}

func TestSplit(t *testing.T) {
	rel := correlated(10)
	subs, ids, err := Split(rel, 3)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if len(subs) != 3 {
		t.Fatalf("got %d shards", len(subs))
	}
	seen := map[int]bool{}
	total := 0
	for s, sub := range subs {
		if len(ids[s]) != sub.N() {
			t.Fatalf("shard %d: %d ids for %d rows", s, len(ids[s]), sub.N())
		}
		for r, id := range ids[s] {
			if id%3 != s {
				t.Errorf("shard %d row %d has global id %d (want id %% 3 == %d)", s, r, id, s)
			}
			if seen[id] {
				t.Errorf("global id %d appears twice", id)
			}
			seen[id] = true
			for c := range rel.Rows[id] {
				if sub.Rows[r][c] != rel.Rows[id][c] {
					t.Errorf("shard %d row %d column %d: %d != global %d", s, r, c, sub.Rows[r][c], rel.Rows[id][c])
				}
			}
		}
		total += sub.N()
	}
	if total != 10 {
		t.Fatalf("shards cover %d rows, want 10", total)
	}
	if _, _, err := Split(rel, 11); err == nil {
		t.Fatal("Split accepted p > n")
	}
	if _, _, err := Split(rel, 0); err == nil {
		t.Fatal("Split accepted p = 0")
	}
}

// TestShardedEquivalence pins the tentpole contract: for every query
// mode and P in {1, 2, 4}, the sharded engine's revealed top-k is
// identical — same objects, same scores, same order — to the unsharded
// spec path over the same keys (and to the plaintext ground truth). The
// fixed-rank-correlated relation keeps every bound exact, the regime the
// merge argument guarantees score-identity in; ties are absent so the
// ordering is fully determined.
func TestShardedEquivalence(t *testing.T) {
	r := getRig(t)
	const n, k = 12, 3
	rel := correlated(n)
	attrs := []int{0, 1, 2}

	truth, err := nra.TopKExact(rel, attrs, nil, k)
	if err != nil {
		t.Fatalf("TopKExact: %v", err)
	}
	er, err := r.scheme.EncryptRelation(rel)
	if err != nil {
		t.Fatalf("EncryptRelation: %v", err)
	}
	tk, err := r.scheme.TokenFor(n, rel.M(), attrs, nil, k)
	if err != nil {
		t.Fatalf("TokenFor: %v", err)
	}

	modes := []core.Mode{core.QryF, core.QryE, core.QryBa}
	if testing.Short() {
		modes = []core.Mode{core.QryE, core.QryBa}
	}
	for _, mode := range modes {
		opts := core.Options{Mode: mode, Halt: core.HaltStrict}
		baseEngine, err := core.NewEngine(r.client, er)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		baseRes, err := baseEngine.SecQuery(context.Background(), tk, opts)
		if err != nil {
			t.Fatalf("%v unsharded SecQuery: %v", mode, err)
		}
		base := reveal(t, r, n, baseRes)
		for i, res := range base {
			if res.Obj != truth[i].Obj || res.Worst != truth[i].Worst {
				t.Fatalf("%v unsharded rank %d: got %+v, ground truth %+v", mode, i, res, truth[i])
			}
		}

		for _, p := range []int{1, 2, 4} {
			sh, err := Encrypt(r.scheme, rel, p)
			if err != nil {
				t.Fatalf("shard.Encrypt(p=%d): %v", p, err)
			}
			eng, err := NewEngine(r.client, sh)
			if err != nil {
				t.Fatalf("NewEngine(p=%d): %v", p, err)
			}
			res, err := eng.SecQuery(context.Background(), tk, opts)
			if err != nil {
				t.Fatalf("%v sharded(p=%d) SecQuery: %v", mode, p, err)
			}
			got := reveal(t, r, n, res)
			if len(got) != len(base) {
				t.Fatalf("%v p=%d: %d results, unsharded %d", mode, p, len(got), len(base))
			}
			for i := range got {
				if got[i] != base[i] {
					t.Errorf("%v p=%d rank %d: sharded %+v != unsharded %+v", mode, p, i, got[i], base[i])
				}
			}
		}
	}
}

// TestShardedAdversarialOrdering runs the sharded engine over
// anti-correlated lists — the case where per-shard scans halt with
// partial scores and the NRA merge-bound check earns its keep (falling
// back to the exact rescan when it cannot certify the merge). The final
// answer must match the plaintext ground truth exactly.
func TestShardedAdversarialOrdering(t *testing.T) {
	r := getRig(t)
	const n, k = 12, 3
	rel := antiCorrelated(n)
	attrs := []int{0, 1, 2}
	truth, err := nra.TopKExact(rel, attrs, nil, k)
	if err != nil {
		t.Fatalf("TopKExact: %v", err)
	}
	tk, err := r.scheme.TokenFor(n, rel.M(), attrs, nil, k)
	if err != nil {
		t.Fatalf("TokenFor: %v", err)
	}
	sh, err := Encrypt(r.scheme, rel, 3)
	if err != nil {
		t.Fatalf("shard.Encrypt: %v", err)
	}
	eng, err := NewEngine(r.client, sh)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Paper halting per shard is the adversarial regime: a shard can halt
	// with undominated bounds, which the merge check must then catch.
	res, err := eng.SecQuery(context.Background(), tk, core.Options{Mode: core.QryE, Halt: core.HaltPaper})
	if err != nil {
		t.Fatalf("SecQuery: %v", err)
	}
	got := reveal(t, r, n, res)
	if len(got) != k {
		t.Fatalf("got %d results, want %d", len(got), k)
	}
	gotSet := map[int]bool{}
	for _, g := range got {
		gotSet[g.Obj] = true
	}
	for _, tr := range truth {
		if !gotSet[tr.Obj] {
			t.Errorf("ground-truth object %d missing from sharded result %+v", tr.Obj, got)
		}
	}
	for _, ev := range r.s1led.Events() {
		if ev.Party == "S1" && ev.Method == "ShardMerge" {
			t.Logf("merge fallback exercised: %s", ev.String())
		}
	}
}

// TestShardedMergeBoundFallback forces the NRA merge-bound check to fail
// deterministically: depth-capped shard scans leave an unseen-object
// residual no merged W_k can dominate, so the engine must fall back to
// the exact rescan — and then return the exact global top-k, scores and
// all, despite the hopeless initial cap.
func TestShardedMergeBoundFallback(t *testing.T) {
	r := getRig(t)
	const n, k = 12, 3
	rel := antiCorrelated(n)
	attrs := []int{0, 1, 2}
	truth, err := nra.TopKExact(rel, attrs, nil, k)
	if err != nil {
		t.Fatalf("TopKExact: %v", err)
	}
	tk, err := r.scheme.TokenFor(n, rel.M(), attrs, nil, k)
	if err != nil {
		t.Fatalf("TokenFor: %v", err)
	}
	sh, err := Encrypt(r.scheme, rel, 2)
	if err != nil {
		t.Fatalf("shard.Encrypt: %v", err)
	}
	eng, err := NewEngine(r.client, sh)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	before := len(r.s1led.Events())
	res, err := eng.SecQuery(context.Background(), tk, core.Options{Mode: core.QryE, Halt: core.HaltStrict, MaxDepth: 2})
	if err != nil {
		t.Fatalf("SecQuery: %v", err)
	}
	fellBack := false
	for _, ev := range r.s1led.Events()[before:] {
		if ev.Party == "S1" && ev.Method == "ShardMerge" {
			fellBack = true
		}
	}
	if !fellBack {
		t.Fatal("depth-capped shard merge was certified without the exact-rescan fallback")
	}
	got := reveal(t, r, n, res)
	for i, g := range got {
		if g.Obj != truth[i].Obj || g.Worst != truth[i].Worst {
			t.Errorf("rank %d: got %+v, ground truth %+v", i, g, truth[i])
		}
	}
}

// TestShardedExactScanFallback pins the fallback path directly: an
// ExactScan over every shard merges to the exact global top-k with exact
// aggregate scores.
func TestShardedExactScanFallback(t *testing.T) {
	r := getRig(t)
	const n, k = 10, 3
	rel := antiCorrelated(n)
	attrs := []int{0, 1, 2}
	truth, err := nra.TopKExact(rel, attrs, nil, k)
	if err != nil {
		t.Fatalf("TopKExact: %v", err)
	}
	tk, err := r.scheme.TokenFor(n, rel.M(), attrs, nil, k)
	if err != nil {
		t.Fatalf("TokenFor: %v", err)
	}
	sh, err := Encrypt(r.scheme, rel, 2)
	if err != nil {
		t.Fatalf("shard.Encrypt: %v", err)
	}
	eng, err := NewEngine(r.client, sh)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.SecQuery(context.Background(), tk, core.Options{Mode: core.QryE, Halt: core.HaltStrict, ExactScan: true})
	if err != nil {
		t.Fatalf("SecQuery(ExactScan): %v", err)
	}
	if !res.Halted {
		t.Fatalf("exact full scan not marked halted")
	}
	got := reveal(t, r, n, res)
	for i, g := range got {
		if g.Obj != truth[i].Obj || g.Worst != truth[i].Worst {
			t.Errorf("rank %d: got %+v, ground truth %+v", i, g, truth[i])
		}
	}
}

func TestShardedValidateToken(t *testing.T) {
	r := getRig(t)
	rel := correlated(8)
	sh, err := Encrypt(r.scheme, rel, 2)
	if err != nil {
		t.Fatalf("shard.Encrypt: %v", err)
	}
	eng, err := NewEngine(r.client, sh)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// k validated against the global n (8), not a shard's 4.
	tk, err := r.scheme.TokenFor(8, rel.M(), []int{0, 1}, nil, 6)
	if err != nil {
		t.Fatalf("TokenFor: %v", err)
	}
	if err := eng.ValidateToken(tk); err != nil {
		t.Fatalf("ValidateToken(k=6 over n=8): %v", err)
	}
	if err := eng.ValidateToken(&core.Token{K: 9, Lists: []int{0}}); err == nil {
		t.Error("accepted k > n")
	}
	if err := eng.ValidateToken(&core.Token{K: 1, Lists: []int{7}}); err == nil {
		t.Error("accepted out-of-range list position")
	}
	if err := eng.ValidateToken(nil); err == nil {
		t.Error("accepted nil token")
	}
}

// TestShardedOversizedK covers k larger than a shard: every shard
// returns its full candidate list and the merge still assembles the
// exact global top-k.
func TestShardedOversizedK(t *testing.T) {
	r := getRig(t)
	const n, k = 9, 5
	rel := correlated(n)
	attrs := []int{0, 1, 2}
	truth, err := nra.TopKExact(rel, attrs, nil, k)
	if err != nil {
		t.Fatalf("TopKExact: %v", err)
	}
	tk, err := r.scheme.TokenFor(n, rel.M(), attrs, nil, k)
	if err != nil {
		t.Fatalf("TokenFor: %v", err)
	}
	sh, err := Encrypt(r.scheme, rel, 3) // shards of 3 rows, k = 5 > 3
	if err != nil {
		t.Fatalf("shard.Encrypt: %v", err)
	}
	eng, err := NewEngine(r.client, sh)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := eng.SecQuery(context.Background(), tk, core.Options{Mode: core.QryE, Halt: core.HaltStrict})
	if err != nil {
		t.Fatalf("SecQuery: %v", err)
	}
	got := reveal(t, r, n, res)
	if len(got) != k {
		t.Fatalf("got %d results, want %d", len(got), k)
	}
	for i, g := range got {
		if g.Obj != truth[i].Obj || g.Worst != truth[i].Worst {
			t.Errorf("rank %d: got %+v, ground truth %+v", i, g, truth[i])
		}
	}
}

// TestMergeRefusesMalformedSets feeds Merge what a cluster member's reply
// can decode to — secio.ReadCandidates checks no shapes — and wants a
// typed bad_request naming the shard where it used to index a missing
// bound column and take the front door down with it.
func TestMergeRefusesMalformedSets(t *testing.T) {
	r := getRig(t)
	const n, k = 8, 2
	rel := correlated(n)
	attrs := []int{0, 1, 2}
	tk, err := r.scheme.TokenFor(n, rel.M(), attrs, nil, k)
	if err != nil {
		t.Fatalf("TokenFor: %v", err)
	}
	sh, err := Encrypt(r.scheme, rel, 2)
	if err != nil {
		t.Fatalf("shard.Encrypt: %v", err)
	}
	eng, err := NewEngine(r.client, sh)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()
	good, err := eng.Candidates(ctx, tk, core.Options{Mode: core.QryE, Halt: core.HaltStrict})
	if err != nil {
		t.Fatalf("Candidates: %v", err)
	}
	if len(good[1].Items) < k || len(good[1].Residuals) == 0 {
		t.Fatalf("shard 1 returned %d items, %d residuals; the cases below need both", len(good[1].Items), len(good[1].Residuals))
	}
	// tamper returns the two sets with a changed copy of shard 1's.
	tamper := func(change func(cs *core.CandidateSet)) []*core.CandidateSet {
		cs := *good[1]
		cs.Items = append([]protocols.Item(nil), cs.Items...)
		cs.Residuals = append([]*paillier.Ciphertext(nil), cs.Residuals...)
		change(&cs)
		return []*core.CandidateSet{good[0], &cs}
	}
	cases := map[string][]*core.CandidateSet{
		// Passes EncSelectTop (it ranks on column 0), then has no ColBest.
		"one score column": tamper(func(cs *core.CandidateSet) {
			for i, it := range cs.Items {
				it.Scores = it.Scores[:1]
				cs.Items[i] = it
			}
		}),
		"nil score":    tamper(func(cs *core.CandidateSet) { cs.Items[0].Scores = []*paillier.Ciphertext{cs.Items[0].Scores[0], nil} }),
		"missing EHL":  tamper(func(cs *core.CandidateSet) { cs.Items[0].EHL = nil }),
		"nil residual": tamper(func(cs *core.CandidateSet) { cs.Residuals[0] = nil }),
		"nil set":      {good[0], nil},
	}
	for name, sets := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := Merge(ctx, r.client, k, eng.magBits(tk), sets)
			if secerr.CodeOf(err) != secerr.CodeBadRequest || !strings.Contains(err.Error(), "shard 1") {
				t.Fatalf("Merge = %v, want a bad_request naming shard 1", err)
			}
		})
	}
	res, certified, err := Merge(ctx, r.client, k, eng.magBits(tk), good)
	if err != nil || !certified || len(res.Items) != k {
		t.Fatalf("well-formed sets: %d items, certified %v, err %v", len(res.Items), certified, err)
	}
}

// fake is a source that answers with run, for exercising the fan-out
// loop without a shard behind it.
func fake(name string, run func(ctx context.Context) ([]*core.CandidateSet, error), indices ...int) Source {
	return Source{Name: name, Indices: indices, Run: func(ctx context.Context, _ *core.Token, _ core.Options) ([]*core.CandidateSet, error) {
		return run(ctx)
	}}
}

// halted returns n empty, certified-by-construction candidate sets.
func halted(n int) func(context.Context) ([]*core.CandidateSet, error) {
	return func(context.Context) ([]*core.CandidateSet, error) {
		sets := make([]*core.CandidateSet, n)
		for i := range sets {
			sets[i] = &core.CandidateSet{Halted: true}
		}
		return sets, nil
	}
}

// TestFanOutSourceSetCount: a source answering with more or fewer sets
// than the shards it holds cannot be placed by index, and is refused
// typed bad_request naming it.
func TestFanOutSourceSetCount(t *testing.T) {
	r := getRig(t)
	tk := &core.Token{K: 2, Lists: []int{0, 1}}
	for _, n := range []int{1, 3} {
		eng, err := NewFanOut(r.client, "cluster", 3, 3, 12, 20, []Source{
			fake("member ok", halted(1), 0),
			fake("member liar", halted(n), 1, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.SecQuery(context.Background(), tk, core.Options{})
		if secerr.CodeOf(err) != secerr.CodeBadRequest || !strings.Contains(err.Error(), "member liar") {
			t.Errorf("%d sets for 2 shards: err = %v, want a bad_request naming the source", n, err)
		}
	}
}

// TestFanOutTiling: sources that overlap, leave a shard unhosted, or
// hold an index past the total are refused at construction.
func TestFanOutTiling(t *testing.T) {
	r := getRig(t)
	for name, tc := range map[string]struct {
		indices [][]int
		want    string
	}{
		"overlap":      {[][]int{{0, 1}, {1, 2}}, "hosted by both"},
		"gap":          {[][]int{{0}, {2}}, "unhosted"},
		"out of range": {[][]int{{0, 1}, {2, 3}}, "out of range"},
	} {
		var sources []Source
		for i, ix := range tc.indices {
			sources = append(sources, fake(fmt.Sprintf("s%d", i), halted(len(ix)), ix...))
		}
		if _, err := NewFanOut(r.client, "shard", 3, 3, 12, 20, sources); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// TestFanOutUncertifiableAfterRescan: a source whose residual bound no
// merged W_k can dominate — even on the exact rescan — fails typed
// internal under both scopes, after recording the scope's fallback.
func TestFanOutUncertifiableAfterRescan(t *testing.T) {
	r := getRig(t)
	const n, k = 8, 2
	rel := correlated(n)
	tk, err := r.scheme.TokenFor(n, rel.M(), []int{0, 1, 2}, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Encrypt(r.scheme, rel, 2)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := r.scheme.PublicKey().EncryptInt64(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	var sources []Source
	for i, er := range sh.Shards {
		sub, err := core.NewEngine(r.client, er)
		if err != nil {
			t.Fatal(err)
		}
		honest := localSource(i, er.N, sub)
		src := honest
		if i == 1 {
			src.Run = func(ctx context.Context, tk *core.Token, opts core.Options) ([]*core.CandidateSet, error) {
				sets, err := honest.Run(ctx, tk, opts)
				if err != nil {
					return nil, err
				}
				cs := *sets[0]
				cs.Residuals = append(append([]*paillier.Ciphertext(nil), cs.Residuals...), huge)
				return []*core.CandidateSet{&cs}, nil
			}
		}
		sources = append(sources, src)
	}
	for scope, event := range map[string]string{"shard": "ShardMerge", "cluster": "ClusterMerge"} {
		eng, err := NewFanOut(r.client, scope, 2, rel.M(), n, sh.MaxScoreBits, sources)
		if err != nil {
			t.Fatal(err)
		}
		before := len(r.s1led.Events())
		_, err = eng.SecQuery(context.Background(), tk, core.Options{Mode: core.QryE, Halt: core.HaltStrict})
		if secerr.CodeOf(err) != secerr.CodeInternal {
			t.Errorf("%s scope: err = %v (code %q), want internal", scope, err, secerr.CodeOf(err))
		}
		fellBack := false
		for _, ev := range r.s1led.Events()[before:] {
			fellBack = fellBack || ev.Method == event
		}
		if !fellBack {
			t.Errorf("%s scope: no %s ledger event before the rescan", scope, event)
		}
	}
}

// TestFanOutFirstErrorWins: when one source fails, its siblings are
// canceled, and the error returned is the failing source's — not a
// sibling's context.Canceled — whichever order the sources are listed.
func TestFanOutFirstErrorWins(t *testing.T) {
	r := getRig(t)
	down := func(context.Context) ([]*core.CandidateSet, error) {
		time.Sleep(20 * time.Millisecond)
		return nil, secerr.New(secerr.CodeUnavailable, "member down unreachable")
	}
	blocked := func(ctx context.Context) ([]*core.CandidateSet, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("member blocked: %w", ctx.Err())
	}
	tk := &core.Token{K: 2, Lists: []int{0}}
	for _, sources := range [][]Source{
		{fake("member down", down, 0), fake("member blocked", blocked, 1)},
		{fake("member blocked", blocked, 0), fake("member down", down, 1)},
	} {
		eng, err := NewFanOut(r.client, "cluster", 2, 3, 12, 20, sources)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.SecQuery(context.Background(), tk, core.Options{})
		if !errors.Is(err, secerr.ErrUnavailable) || errors.Is(err, context.Canceled) {
			t.Errorf("sources %s, %s: err = %v, want the failing source's unavailable", sources[0].Name, sources[1].Name, err)
		}
	}
}
