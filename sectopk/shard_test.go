package sectopk_test

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/sectopk"
)

// shardDemoRelation is rank-correlated with distinct aggregates, so the
// sharded and unsharded engines are score-identical (see
// internal/shard's equivalence suite for the argument).
func shardDemoRelation(n int) *sectopk.Relation {
	rel := &sectopk.Relation{Name: "sharddemo"}
	for i := 0; i < n; i++ {
		rel.Rows = append(rel.Rows, []int64{int64(3*n - 3*i), int64(2*n - 2*i + 1), int64(n - i + 2)})
	}
	return rel
}

// plainTopK is the ground truth: rank by aggregate score, descending.
func plainTopK(rel *sectopk.Relation, k int) []sectopk.Result {
	type pair struct {
		obj   int
		score int64
	}
	all := make([]pair, len(rel.Rows))
	for i, row := range rel.Rows {
		var s int64
		for _, v := range row {
			s += v
		}
		all[i] = pair{obj: i, score: s}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].obj < all[j].obj
	})
	out := make([]sectopk.Result, k)
	for i := 0; i < k; i++ {
		out[i] = sectopk.Result{Object: all[i].obj, Score: all[i].score}
	}
	return out
}

// TestShardedConcurrentOverTCP drives the whole throughput-first data
// plane through the public API: a sharded relation (WithShards), a TCP
// connection carrying the multiplexed framing, the batch scheduler, and
// concurrent Execute calls under a session limit — every result identical
// to the plaintext ground truth.
func TestShardedConcurrentOverTCP(t *testing.T) {
	ctx := context.Background()
	const n, k, p = 12, 3, 3
	rel := shardDemoRelation(n)
	truth := plainTopK(rel, k)

	owner, err := sectopk.NewOwner(testOpts(sectopk.WithShards(p))...)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	er, err := owner.Encrypt(rel)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if er.Shards() != p {
		t.Fatalf("Shards() = %d, want %d", er.Shards(), p)
	}
	if er.Rows() != n {
		t.Fatalf("Rows() = %d, want global %d", er.Rows(), n)
	}

	cc := sectopk.NewCryptoCloud(testOpts()...)
	defer cc.Close()
	if err := cc.Register("sharddemo", owner.Keys()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()
	go func() { _ = cc.Serve(serveCtx, l) }()

	const queries = 4
	dc := sectopk.NewDataCloud(testOpts(sectopk.WithSessionLimit(queries))...)
	defer dc.Close()
	if err := dc.Dial(ctx, l.Addr().String()); err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := dc.Host(ctx, "sharddemo", er); err != nil {
		t.Fatalf("Host: %v", err)
	}
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: k})
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	req := sectopk.TopKRequest("sharddemo", tk, sectopk.WithMode(sectopk.ModeEliminate))
	var wg sync.WaitGroup
	results := make([][]sectopk.Result, queries)
	errs := make([]error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, err := dc.Execute(ctx, req)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = owner.Reveal(er, ans.TopK)
		}(i)
	}
	wg.Wait()
	for i := 0; i < queries; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent query %d: %v", i, errs[i])
		}
		if len(results[i]) != k {
			t.Fatalf("query %d returned %d results", i, len(results[i]))
		}
		for rank, got := range results[i] {
			if got != truth[rank] {
				t.Errorf("query %d rank %d: got %+v, want %+v", i, rank, got, truth[rank])
			}
		}
	}
}

// TestShardedRelationRoundTrip persists a sharded relation and loads it
// back; an unsharded save stays in the legacy format and loads too.
func TestShardedRelationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rel := shardDemoRelation(8)
	owner, err := sectopk.NewOwner(testOpts(sectopk.WithShards(2))...)
	if err != nil {
		t.Fatalf("NewOwner: %v", err)
	}
	er, err := owner.Encrypt(rel)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	path := filepath.Join(dir, "sharded.er")
	if err := er.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := sectopk.LoadEncryptedRelation(path)
	if err != nil {
		t.Fatalf("LoadEncryptedRelation: %v", err)
	}
	if loaded.Shards() != 2 || loaded.Rows() != 8 || loaded.Attributes() != 3 {
		t.Fatalf("loaded shape: shards=%d rows=%d attrs=%d", loaded.Shards(), loaded.Rows(), loaded.Attributes())
	}

	// The loaded bundle still answers queries correctly end to end.
	ctx := context.Background()
	cc := sectopk.NewCryptoCloud(testOpts()...)
	defer cc.Close()
	if err := cc.Register("rt", owner.Keys()); err != nil {
		t.Fatal(err)
	}
	dc := sectopk.NewDataCloud(testOpts()...)
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if err := dc.Host(ctx, "rt", loaded); err != nil {
		t.Fatalf("Host(loaded): %v", err)
	}
	tk, err := owner.Token(loaded, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := dc.Execute(ctx, sectopk.TopKRequest("rt", tk, sectopk.WithMode(sectopk.ModeEliminate)))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	got, err := owner.Reveal(loaded, ans.TopK)
	if err != nil {
		t.Fatalf("Reveal: %v", err)
	}
	truth := plainTopK(rel, 2)
	for i := range got {
		if got[i] != truth[i] {
			t.Errorf("rank %d: got %+v, want %+v", i, got[i], truth[i])
		}
	}

	// A restored owner keeps sharding when asked: the bundle does not
	// record Enc-time options, so LoadOwner re-applies them.
	bundle := filepath.Join(dir, "owner.bundle")
	if err := owner.Save(bundle); err != nil {
		t.Fatalf("owner.Save: %v", err)
	}
	restored, err := sectopk.LoadOwner(bundle, sectopk.WithShards(2))
	if err != nil {
		t.Fatalf("LoadOwner: %v", err)
	}
	rer, err := restored.Encrypt(rel)
	if err != nil {
		t.Fatalf("restored Encrypt: %v", err)
	}
	if rer.Shards() != 2 {
		t.Fatalf("restored owner encrypted %d shard(s), want 2", rer.Shards())
	}

	// Unsharded bundles keep the legacy format readable by older builds.
	plainOwner, err := sectopk.NewOwner(testOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	plainER, err := plainOwner.Encrypt(demoRelation())
	if err != nil {
		t.Fatal(err)
	}
	plainPath := filepath.Join(dir, "plain.er")
	if err := plainER.Save(plainPath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(plainPath); err != nil {
		t.Fatal(err)
	}
	plainLoaded, err := sectopk.LoadEncryptedRelation(plainPath)
	if err != nil {
		t.Fatalf("legacy-format load: %v", err)
	}
	if plainLoaded.Shards() != 1 {
		t.Fatalf("legacy bundle loaded as %d shards", plainLoaded.Shards())
	}
}
