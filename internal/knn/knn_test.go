package knn

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/secerr"
	"repro/internal/transport"
)

type rig struct {
	keys   *cloud.KeyMaterial
	scheme *Scheme
	client *cloud.Client
}

var (
	rigOnce sync.Once
	shared  *rig
)

func getRig(t testing.TB) *rig {
	t.Helper()
	rigOnce.Do(func() {
		keys, err := cloud.NewKeyMaterial(256)
		if err != nil {
			t.Fatalf("NewKeyMaterial: %v", err)
		}
		scheme, err := NewScheme(keys, ehl.Params{Kind: ehl.KindPlus, S: 3}, 16)
		if err != nil {
			t.Fatalf("NewScheme: %v", err)
		}
		server, err := cloud.NewServer(keys, cloud.NewLedger())
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		client, err := cloud.NewClient(transport.NewLocal(server, transport.NewStats()), &keys.Paillier.PublicKey, cloud.NewLedger())
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		shared = &rig{keys: keys, scheme: scheme, client: client}
	})
	return shared
}

func smallRelation() *dataset.Relation {
	return &dataset.Relation{
		Name: "pts",
		Rows: [][]int64{
			{1, 1},   // 0
			{10, 10}, // 1
			{4, 5},   // 2
			{9, 8},   // 3
			{2, 7},   // 4
		},
	}
}

func TestPlainKNN(t *testing.T) {
	rel := smallRelation()
	objs, dists, err := PlainKNN(rel, []int64{9, 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Distances to (9,9): 128, 2, 41, 1, 53 -> nearest: obj 3 (1), obj 1 (2).
	if objs[0] != 3 || objs[1] != 1 {
		t.Fatalf("plain kNN = %v", objs)
	}
	if dists[0] != 1 || dists[1] != 2 {
		t.Fatalf("plain distances = %v", dists)
	}
	if _, _, err := PlainKNN(nil, []int64{1}, 1); err == nil {
		t.Fatal("expected error for nil relation")
	}
	if _, _, err := PlainKNN(rel, []int64{1}, 1); err == nil {
		t.Fatal("expected error for dimension mismatch")
	}
}

func TestSecureKNNMatchesPlain(t *testing.T) {
	r := getRig(t)
	rel := smallRelation()
	db, err := r.scheme.Encrypt(rel)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	engine, err := NewEngine(r.client, db, 16)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	q := []int64{9, 9}
	items, err := engine.Query(context.Background(), q, 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	rev, err := r.scheme.NewRevealer(rel.N())
	if err != nil {
		t.Fatal(err)
	}
	wantObjs, wantDists, _ := PlainKNN(rel, q, 2)
	for i, it := range items {
		obj, dist, err := rev.Reveal(it)
		if err != nil {
			t.Fatalf("Reveal %d: %v", i, err)
		}
		if obj != wantObjs[i] || dist != wantDists[i] {
			t.Fatalf("result %d = obj %d dist %d, want obj %d dist %d",
				i, obj, dist, wantObjs[i], wantDists[i])
		}
	}
}

func TestTopKViaKNNMatchesSumOfSquaresRanking(t *testing.T) {
	// Section 11.3's reduction: querying the domain's upper corner makes
	// the k nearest records the top-k by the sum-of-squares score.
	r := getRig(t)
	rel := smallRelation()
	db, err := r.scheme.Encrypt(rel)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(r.client, db, 16)
	if err != nil {
		t.Fatal(err)
	}
	const maxScore = 10
	items, err := TopKViaKNN(context.Background(), engine, maxScore, 2)
	if err != nil {
		t.Fatalf("TopKViaKNN: %v", err)
	}
	rev, _ := r.scheme.NewRevealer(rel.N())
	obj0, _, err := rev.Reveal(items[0])
	if err != nil {
		t.Fatal(err)
	}
	obj1, _, err := rev.Reveal(items[1])
	if err != nil {
		t.Fatal(err)
	}
	// Sum-of-squares scores: 2, 200, 41, 145, 53 -> top-2 = obj 1, obj 3.
	if obj0 != 1 || obj1 != 3 {
		t.Fatalf("top-2 via kNN = %d,%d want 1,3", obj0, obj1)
	}
}

func TestQueryValidation(t *testing.T) {
	r := getRig(t)
	db, err := r.scheme.Encrypt(smallRelation())
	if err != nil {
		t.Fatal(err)
	}
	engine, _ := NewEngine(r.client, db, 16)
	if _, err := engine.Query(context.Background(), []int64{1}, 1); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	if _, err := engine.Query(context.Background(), []int64{1, 1}, 0); err == nil {
		t.Fatal("expected k=0 error")
	}
	// A coordinate outside [0, 2^maxScoreBits) would outgrow the width
	// the differences are blinded at: refused typed, as at the facade.
	for _, q := range [][]int64{{1 << 16, 1}, {1, -1}} {
		if _, err := engine.Query(context.Background(), q, 1); !errors.Is(err, secerr.ErrInvalidToken) {
			t.Fatalf("point %v: err = %v, want invalid_token", q, err)
		}
	}
	// k > n clamps.
	items, err := engine.Query(context.Background(), []int64{0, 0}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("k>n should clamp: got %d", len(items))
	}
}

func TestConstructorValidation(t *testing.T) {
	r := getRig(t)
	if _, err := NewScheme(nil, ehl.DefaultPlusParams(), 16); err == nil {
		t.Fatal("expected error for nil keys")
	}
	if _, err := NewScheme(r.keys, ehl.DefaultPlusParams(), 0); err == nil {
		t.Fatal("expected error for zero score bits")
	}
	if _, err := NewEngine(nil, &EncDatabase{N: 1}, 16); err == nil {
		t.Fatal("expected error for nil client")
	}
	if _, err := NewEngine(r.client, nil, 16); err == nil {
		t.Fatal("expected error for nil db")
	}
	if _, err := r.scheme.Encrypt(nil); err == nil {
		t.Fatal("expected error for nil relation")
	}
	big := &dataset.Relation{Name: "big", Rows: [][]int64{{1 << 30}}}
	if _, err := r.scheme.Encrypt(big); err == nil {
		t.Fatal("expected error for oversized scores")
	}
	if _, err := r.scheme.NewRevealer(0); err == nil {
		t.Fatal("expected error for n=0")
	}
}

// TestHasherEncryptsThroughOwnerSurface pins that the owner's id digests
// are encrypted through the same surface as its values.
func TestHasherEncryptsThroughOwnerSurface(t *testing.T) {
	r := getRig(t)
	s, err := NewSchemeWithMaster(r.keys, r.scheme.Master(), ehl.DefaultPlusParams(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Scheme{r.scheme, s} {
		if s.hasher.Encryptor() != s.enc {
			t.Fatal("the hasher encrypts through another surface than the values")
		}
	}
}
