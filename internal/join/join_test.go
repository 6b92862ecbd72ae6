package join

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/transport"
)

type rig struct {
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
		params := Params{KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 16}
		scheme, err := NewScheme(params)
		if err != nil {
			t.Fatalf("NewScheme: %v", err)
		}
		server, err := cloud.NewServer(scheme.KeyMaterial(), cloud.NewLedger())
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		client, err := cloud.NewClient(transport.NewLocal(server, transport.NewStats()), scheme.PublicKey(), cloud.NewLedger())
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		shared = &rig{scheme: scheme, client: client}
	})
	return shared
}

// testRelations builds two small relations with a shared join domain.
// R1(join, score, extra), R2(join, score, extra).
func testRelations() (*dataset.Relation, *dataset.Relation) {
	r1 := &dataset.Relation{Name: "R1", Rows: [][]int64{
		{1, 10, 100},
		{2, 20, 200},
		{3, 30, 300},
		{2, 25, 250},
	}}
	r2 := &dataset.Relation{Name: "R2", Rows: [][]int64{
		{2, 5, 500},
		{3, 7, 700},
		{4, 9, 900},
	}}
	return r1, r2
}

func TestPlainTopKJoin(t *testing.T) {
	r1, r2 := testRelations()
	// Joins: (r1[1],r2[0]) 20+5=25; (r1[3],r2[0]) 25+5=30; (r1[2],r2[1]) 30+7=37.
	got, err := PlainTopKJoin(r1, r2, 0, 0, 1, 1, []int{2}, []int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Score != 37 || got[1].Score != 30 {
		t.Fatalf("plain join top-2 = %+v", got)
	}
	if got[0].Attrs[0] != 300 || got[0].Attrs[1] != 700 {
		t.Fatalf("projected attrs = %v", got[0].Attrs)
	}
	if _, err := PlainTopKJoin(nil, r2, 0, 0, 1, 1, nil, nil, 2); err == nil {
		t.Fatal("expected error for nil relation")
	}
}

func TestSecJoinMatchesPlaintext(t *testing.T) {
	r := getRig(t)
	r1, r2 := testRelations()
	er1, err := r.scheme.EncryptRelation(r1)
	if err != nil {
		t.Fatalf("EncryptRelation R1: %v", err)
	}
	er2, err := r.scheme.EncryptRelation(r2)
	if err != nil {
		t.Fatalf("EncryptRelation R2: %v", err)
	}
	tk, err := r.scheme.NewToken(er1, er2, 0, 0, 1, 1, []int{2}, []int{2}, 2)
	if err != nil {
		t.Fatalf("NewToken: %v", err)
	}
	engine, err := NewEngine(r.client, er1, er2, 16)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	enc, err := engine.SecJoin(context.Background(), tk)
	if err != nil {
		t.Fatalf("SecJoin: %v", err)
	}
	got, err := r.scheme.Reveal(enc)
	if err != nil {
		t.Fatalf("Reveal: %v", err)
	}
	want, err := PlainTopKJoin(r1, r2, 0, 0, 1, 1, []int{2}, []int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score {
			t.Fatalf("tuple %d score = %d, want %d", i, got[i].Score, want[i].Score)
		}
		for j := range want[i].Attrs {
			if got[i].Attrs[j] != want[i].Attrs[j] {
				t.Fatalf("tuple %d attr %d = %d, want %d", i, j, got[i].Attrs[j], want[i].Attrs[j])
			}
		}
	}
}

func TestSecJoinNoMatches(t *testing.T) {
	r := getRig(t)
	r1 := &dataset.Relation{Name: "A1", Rows: [][]int64{{1, 10}, {2, 20}}}
	r2 := &dataset.Relation{Name: "A2", Rows: [][]int64{{8, 5}, {9, 7}}}
	er1, err := r.scheme.EncryptRelation(r1)
	if err != nil {
		t.Fatal(err)
	}
	er2, err := r.scheme.EncryptRelation(r2)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := r.scheme.NewToken(er1, er2, 0, 0, 1, 1, nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(r.client, er1, er2, 16)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.SecJoin(context.Background(), tk)
	if err != nil {
		t.Fatalf("SecJoin: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("expected no joined tuples, got %d", len(out))
	}
}

func TestSecJoinKLargerThanMatches(t *testing.T) {
	r := getRig(t)
	r1, r2 := testRelations()
	er1, _ := r.scheme.EncryptRelation(r1)
	er2, _ := r.scheme.EncryptRelation(r2)
	tk, err := r.scheme.NewToken(er1, er2, 0, 0, 1, 1, nil, nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	engine, _ := NewEngine(r.client, er1, er2, 16)
	enc, err := engine.SecJoin(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.scheme.Reveal(enc)
	if err != nil {
		t.Fatal(err)
	}
	// All three joins, ranked.
	scores := []int64{got[0].Score, got[1].Score, got[2].Score}
	if !sort.SliceIsSorted(scores, func(i, j int) bool { return scores[i] > scores[j] }) {
		t.Fatalf("join results not ranked: %v", scores)
	}
	if len(got) != 3 || scores[0] != 37 {
		t.Fatalf("join results = %+v", got)
	}
}

func TestTokenValidation(t *testing.T) {
	r := getRig(t)
	r1, r2 := testRelations()
	er1, _ := r.scheme.EncryptRelation(r1)
	er2, _ := r.scheme.EncryptRelation(r2)
	if _, err := r.scheme.NewToken(er1, er2, 9, 0, 1, 1, nil, nil, 2); err == nil {
		t.Fatal("expected error for join attribute out of range")
	}
	if _, err := r.scheme.NewToken(er1, er2, 0, 0, 1, 1, []int{7}, nil, 2); err == nil {
		t.Fatal("expected error for projection out of range")
	}
	if _, err := r.scheme.NewToken(er1, er2, 0, 0, 1, 1, nil, nil, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := r.scheme.NewToken(nil, er2, 0, 0, 1, 1, nil, nil, 2); err == nil {
		t.Fatal("expected error for nil relation")
	}
}

func TestEngineValidation(t *testing.T) {
	r := getRig(t)
	r1, r2 := testRelations()
	er1, _ := r.scheme.EncryptRelation(r1)
	er2, _ := r.scheme.EncryptRelation(r2)
	if _, err := NewEngine(nil, er1, er2, 16); err == nil {
		t.Fatal("expected error for nil client")
	}
	if _, err := NewEngine(r.client, nil, er2, 16); err == nil {
		t.Fatal("expected error for nil relation")
	}
	if _, err := NewEngine(r.client, er1, er2, 0); err == nil {
		t.Fatal("expected error for zero score bits")
	}
	engine, _ := NewEngine(r.client, er1, er2, 16)
	if _, err := engine.SecJoin(context.Background(), nil); err == nil {
		t.Fatal("expected error for nil token")
	}
	if _, err := engine.SecJoin(context.Background(), &Token{K: 1, JoinPos1: 99}); err == nil {
		t.Fatal("expected error for bad token position")
	}
}

func TestEncryptRelationValidation(t *testing.T) {
	r := getRig(t)
	if _, err := r.scheme.EncryptRelation(nil); err == nil {
		t.Fatal("expected error for nil relation")
	}
	big := &dataset.Relation{Name: "big", Rows: [][]int64{{1 << 40}}}
	if _, err := r.scheme.EncryptRelation(big); err == nil {
		t.Fatal("expected error for oversized score")
	}
}

func TestSchemeValidation(t *testing.T) {
	if _, err := NewSchemeFromKeys(Params{KeyBits: 256, EHL: ehl.Params{}, MaxScoreBits: 16}, nil); err == nil {
		t.Fatal("expected error for bad EHL params")
	}
	r := getRig(t)
	if _, err := NewSchemeFromKeys(Params{KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 0}, r.scheme.KeyMaterial()); err == nil {
		t.Fatal("expected error for zero MaxScoreBits")
	}
	if _, err := NewSchemeFromKeys(Params{KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 16}, nil); err == nil {
		t.Fatal("expected error for nil keys")
	}
}

// TestNewSchemeRefusesBeforeKeygen: parameters the scheme refuses are
// refused before any key is drawn, so a 4096-bit key size, whose safe
// primes take minutes, still fails at once.
func TestNewSchemeRefusesBeforeKeygen(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := NewScheme(Params{KeyBits: 4096, EHL: ehl.Params{Kind: ehl.KindPlus, S: 1}, MaxScoreBits: 4096})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("NewScheme accepted MaxScoreBits 4096 for 4096-bit keys")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewScheme drew keys for parameters it refuses")
	}
}

func TestValueEqualityAcrossRelations(t *testing.T) {
	// Equal attribute values in different relations must hash to matching
	// EHLs (the property the equi-join relies on).
	r := getRig(t)
	r1 := &dataset.Relation{Name: "B1", Rows: [][]int64{{42, 1}}}
	r2 := &dataset.Relation{Name: "B2", Rows: [][]int64{{42, 2}}}
	er1, err := r.scheme.EncryptRelation(r1)
	if err != nil {
		t.Fatal(err)
	}
	er2, err := r.scheme.EncryptRelation(r2)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := r.scheme.NewToken(er1, er2, 0, 0, 1, 1, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, _ := NewEngine(r.client, er1, er2, 16)
	out, err := engine.SecJoin(context.Background(), tk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.scheme.Reveal(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Score != 3 {
		t.Fatalf("cross-relation equality broken: %+v", got)
	}
}

// TestHasherEncryptsThroughOwnerSurface pins that the owner's value
// digests are encrypted through the same surface as its values.
func TestHasherEncryptsThroughOwnerSurface(t *testing.T) {
	r := getRig(t)
	s, err := RestoreScheme(r.scheme.Params(), r.scheme.KeyMaterial(), r.scheme.Secrets())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Scheme{r.scheme, s} {
		if s.hasher.Encryptor() != s.enc {
			t.Fatal("the hasher encrypts through another surface than the values")
		}
	}
}
