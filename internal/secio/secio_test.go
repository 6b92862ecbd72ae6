package secio

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/mutate"
	"repro/internal/protocols"
	"repro/internal/transport"
)

type rigT struct {
	scheme *core.Scheme
	client *cloud.Client
}

var (
	rigOnce sync.Once
	rig     *rigT
)

func getRig(t testing.TB) *rigT {
	t.Helper()
	rigOnce.Do(func() {
		scheme, err := core.NewScheme(core.Params{
			KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 20,
		})
		if err != nil {
			t.Fatalf("NewScheme: %v", err)
		}
		server, err := cloud.NewServer(scheme.KeyMaterial(), nil)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		client, err := cloud.NewClient(transport.NewLocal(server, nil), scheme.PublicKey(), nil)
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		rig = &rigT{scheme: scheme, client: client}
	})
	return rig
}

func testRelation() *dataset.Relation {
	return &dataset.Relation{
		Name: "fig3",
		Rows: [][]int64{
			{10, 3, 2}, {8, 8, 0}, {5, 7, 6}, {3, 2, 8}, {1, 1, 1},
		},
	}
}

// hostedStream serializes a freshly encrypted relation the way the facade
// does: as an epoch-1 "hosted-mutable" bundle.
func hostedStream(t *testing.T, r *rigT, er *core.EncryptedRelation) *bytes.Buffer {
	t.Helper()
	st, err := mutate.New([]*core.EncryptedRelation{er}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMutableHosted(&buf, st, 1, []int{0}, r.scheme.PublicKey()); err != nil {
		t.Fatalf("WriteMutableHosted: %v", err)
	}
	return &buf
}

func TestRelationRoundTripAndQuery(t *testing.T) {
	r := getRig(t)
	er, err := r.scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	st, _, _, _, err := ReadMutableHosted(hostedStream(t, r, er))
	if err != nil {
		t.Fatalf("ReadMutableHosted: %v", err)
	}
	loaded := st.LiveShards()[0]
	if loaded.Name != er.Name || loaded.N != er.N || loaded.M != er.M ||
		loaded.MaxScoreBits != er.MaxScoreBits || loaded.EHLParams != er.EHLParams {
		t.Fatalf("metadata mismatch: %+v vs %+v", loaded, er)
	}
	// The loaded relation must be fully queryable.
	tk, err := r.scheme.Token(loaded, []int{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(r.client, loaded)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SecQuery(context.Background(), tk, core.Options{Mode: core.QryE})
	if err != nil {
		t.Fatalf("SecQuery over loaded relation: %v", err)
	}
	// The answer must survive its own codec too.
	var buf bytes.Buffer
	if err := WriteQueryResult(&buf, res.Items, res.Depth, res.Halted); err != nil {
		t.Fatalf("WriteQueryResult: %v", err)
	}
	items, depth, halted, err := ReadQueryResult(&buf)
	if err != nil || depth != res.Depth || halted != res.Halted {
		t.Fatalf("ReadQueryResult: depth=%d halted=%v, %v", depth, halted, err)
	}
	rev, err := r.scheme.NewRevealer(loaded.N)
	if err != nil {
		t.Fatal(err)
	}
	revealed, err := rev.RevealTopK(items)
	if err != nil {
		t.Fatal(err)
	}
	if revealed[0].Obj != 2 || revealed[0].Worst != 18 {
		t.Fatalf("loaded-relation query top-1 = %+v", revealed[0])
	}
	// Malformed result items and an empty stream are errors.
	if err := WriteQueryResult(&buf, []protocols.Item{{}}, 1, true); err == nil {
		t.Fatal("expected error for item without EHL")
	}
	if _, _, _, err := ReadQueryResult(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty stream")
	}
}

func TestHeaderValidation(t *testing.T) {
	r := getRig(t)
	er, err := r.scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	// Garbage stream.
	if _, _, _, _, err := ReadMutableHosted(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
	// Wrong kind: a token stream read as a hosted relation.
	var buf bytes.Buffer
	tk, err := r.scheme.Token(er, []int{0}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteToken(&buf, tk); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := ReadMutableHosted(&buf); err == nil || !strings.Contains(err.Error(), "expected") {
		t.Fatalf("expected kind mismatch error, got %v", err)
	}
}

func TestTokenRoundTrip(t *testing.T) {
	r := getRig(t)
	er, err := r.scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := r.scheme.Token(er, []int{0, 2}, []int64{2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteToken(&buf, tk); err != nil {
		t.Fatal(err)
	}
	got, err := ReadToken(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != tk.K || len(got.Lists) != len(tk.Lists) || len(got.Weights) != len(tk.Weights) {
		t.Fatalf("token mismatch: %+v vs %+v", got, tk)
	}
	for i := range tk.Lists {
		if got.Lists[i] != tk.Lists[i] {
			t.Fatalf("list position %d mismatch", i)
		}
	}
	if err := WriteToken(&buf, nil); err == nil {
		t.Fatal("expected error for nil token")
	}
	if _, err := ReadToken(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty stream")
	}
}

func TestJoinRelationRoundTrip(t *testing.T) {
	r := getRig(t)
	params := join.Params{KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 16}
	jScheme, err := join.NewSchemeFromKeys(params, r.scheme.KeyMaterial())
	if err != nil {
		t.Fatal(err)
	}
	rel := &dataset.Relation{Name: "J", Rows: [][]int64{{1, 10}, {2, 20}}}
	er, err := jScheme.EncryptRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHostedJoinRelation(&buf, er, params.EHL, params.MaxScoreBits, r.scheme.PublicKey()); err != nil {
		t.Fatalf("WriteHostedJoinRelation: %v", err)
	}
	loaded, gotParams, gotBits, pk, err := ReadHostedJoinRelation(&buf)
	if err != nil {
		t.Fatalf("ReadHostedJoinRelation: %v", err)
	}
	if gotParams != params.EHL || gotBits != params.MaxScoreBits || pk.N.Cmp(r.scheme.PublicKey().N) != 0 {
		t.Fatalf("metadata mismatch: %+v, %d bits", gotParams, gotBits)
	}
	if loaded.Name != er.Name || loaded.N != er.N || loaded.M != er.M {
		t.Fatalf("metadata mismatch")
	}
	if len(loaded.Tuples) != 2 || len(loaded.Tuples[0]) != 2 {
		t.Fatalf("tuple shape wrong")
	}
	if err := WriteHostedJoinRelation(&buf, nil, params.EHL, params.MaxScoreBits, r.scheme.PublicKey()); err == nil {
		t.Fatal("expected error for nil join relation")
	}
}

func TestCorruptedStreamRejected(t *testing.T) {
	r := getRig(t)
	er, err := r.scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	raw := hostedStream(t, r, er).Bytes()
	// Truncate mid-stream.
	if _, _, _, _, err := ReadMutableHosted(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}
