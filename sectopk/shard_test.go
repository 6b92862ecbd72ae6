package sectopk_test

import (
	"context"
	"os"
	"path/filepath"
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

// TestShardedConcurrentOverTCP drives the whole throughput-first data
// plane through the public API: a sharded relation (WithShards), a TCP
// connection carrying the multiplexed framing, the batch scheduler, and
// concurrent Execute calls under a session limit — every result identical
// to the plaintext ground truth.
func TestShardedConcurrentOverTCP(t *testing.T) {
	ctx := context.Background()
	const n, k, p, queries = 12, 3, 3, 4
	rel := shardDemoRelation(n)
	q := sectopk.Query{Attrs: []int{0, 1, 2}, K: k}
	truth := wantTopK(t, rel.Rows, q)

	st := newStack(t, stackSpec{
		id: "sharddemo", rel: rel, connect: dialS2(t, loopback(t), nil),
		opts: []sectopk.Option{sectopk.WithShards(p), sectopk.WithSessionLimit(queries)},
	})
	owner, er, dc := st.owner, st.er, st.dc
	if er.Shards() != p {
		t.Fatalf("Shards() = %d, want %d", er.Shards(), p)
	}
	if er.Rows() != n {
		t.Fatalf("Rows() = %d, want global %d", er.Rows(), n)
	}
	req := sectopk.TopKRequest("sharddemo", st.token(t, q), sectopk.WithMode(sectopk.ModeEliminate))
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
// back; an unsharded relation saves and loads as one shard.
func TestShardedRelationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rel := shardDemoRelation(8)
	st := newStack(t, stackSpec{id: "rt", rel: rel, opts: []sectopk.Option{sectopk.WithShards(2)}, unhosted: true})
	owner, er := st.owner, st.er
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
	if err := st.dc.Host(context.Background(), "rt", loaded); err != nil {
		t.Fatalf("Host(loaded): %v", err)
	}
	q := sectopk.Query{Attrs: []int{0, 1, 2}, K: 2}
	got := runSession(t, owner, st.dc, "rt", loaded, q, sectopk.WithMode(sectopk.ModeEliminate))
	truth := wantTopK(t, rel.Rows, q)
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

	// An unsharded relation saves and loads as one shard.
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
		t.Fatalf("unsharded load: %v", err)
	}
	if plainLoaded.Shards() != 1 {
		t.Fatalf("unsharded relation loaded as %d shards", plainLoaded.Shards())
	}
}
