package secio

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/knn"
	"repro/internal/paillier"
	"repro/internal/protocols"
)

func TestKNNTokenRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteKNNToken(&buf, []int64{3, 1, 4}, 2); err != nil {
		t.Fatalf("WriteKNNToken: %v", err)
	}
	point, k, err := ReadKNNToken(&buf)
	if err != nil {
		t.Fatalf("ReadKNNToken: %v", err)
	}
	if k != 2 || len(point) != 3 || point[0] != 3 || point[1] != 1 || point[2] != 4 {
		t.Fatalf("round trip = point %v k %d", point, k)
	}
	if err := WriteKNNToken(&buf, nil, 1); err == nil {
		t.Fatal("expected error for empty point")
	}
	// Wrong kind is rejected.
	buf.Reset()
	if err := WriteJoinToken(&buf, &join.Token{K: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadKNNToken(&buf); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

func TestJoinResultRoundTrip(t *testing.T) {
	ct := func(v int64) *paillier.Ciphertext { return &paillier.Ciphertext{C: big.NewInt(v)} }
	tuples := []protocols.JoinTuple{
		{Score: ct(11), Attrs: []*paillier.Ciphertext{ct(21), ct(31)}},
		{Score: ct(12), Attrs: []*paillier.Ciphertext{ct(22), ct(32)}},
	}
	var buf bytes.Buffer
	if err := WriteJoinResult(&buf, tuples); err != nil {
		t.Fatalf("WriteJoinResult: %v", err)
	}
	loaded, err := ReadJoinResult(&buf)
	if err != nil {
		t.Fatalf("ReadJoinResult: %v", err)
	}
	if len(loaded) != 2 {
		t.Fatalf("loaded %d tuples, want 2", len(loaded))
	}
	for i, tup := range loaded {
		if tup.Score.C.Cmp(tuples[i].Score.C) != 0 || len(tup.Attrs) != 2 {
			t.Fatalf("tuple %d mismatch: %+v", i, tup)
		}
		for j, a := range tup.Attrs {
			if a.C.Cmp(tuples[i].Attrs[j].C) != 0 {
				t.Fatalf("tuple %d attr %d mismatch", i, j)
			}
		}
	}
	// Empty results round-trip too (a join can select zero tuples).
	buf.Reset()
	if err := WriteJoinResult(&buf, nil); err != nil {
		t.Fatalf("WriteJoinResult(nil): %v", err)
	}
	if loaded, err := ReadJoinResult(&buf); err != nil || len(loaded) != 0 {
		t.Fatalf("empty round trip = %v, %v", loaded, err)
	}
	buf.Reset()
	if err := WriteJoinResult(&buf, []protocols.JoinTuple{{}}); err == nil {
		t.Fatal("expected error for nil score")
	}
}

func TestKNNResultRoundTrip(t *testing.T) {
	ct := func(v int64) *paillier.Ciphertext { return &paillier.Ciphertext{C: big.NewInt(v)} }
	items := []protocols.Item{
		{EHL: &ehl.List{Cts: []*paillier.Ciphertext{ct(7), ct(8)}}, Scores: []*paillier.Ciphertext{ct(42)}},
	}
	var buf bytes.Buffer
	if err := WriteKNNResult(&buf, items); err != nil {
		t.Fatalf("WriteKNNResult: %v", err)
	}
	loaded, err := ReadKNNResult(&buf)
	if err != nil {
		t.Fatalf("ReadKNNResult: %v", err)
	}
	if len(loaded) != 1 || len(loaded[0].EHL.Cts) != 2 || loaded[0].Scores[0].C.Cmp(big.NewInt(42)) != 0 {
		t.Fatalf("round trip = %+v", loaded)
	}
	// A top-k result stream is not a kNN result stream.
	buf.Reset()
	if err := WriteQueryResult(&buf, items, 3, true); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadKNNResult(&buf); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

func TestHostedKNNRelationRoundTrip(t *testing.T) {
	r := getRig(t)
	scheme, err := knn.NewScheme(r.scheme.KeyMaterial(), ehl.Params{Kind: ehl.KindPlus, S: 3}, 20)
	if err != nil {
		t.Fatal(err)
	}
	db, err := scheme.Encrypt(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHostedKNNRelation(&buf, db, 20, r.scheme.PublicKey()); err != nil {
		t.Fatalf("WriteHostedKNNRelation: %v", err)
	}
	loaded, maxScoreBits, pk, err := ReadHostedKNNRelation(&buf)
	if err != nil {
		t.Fatalf("ReadHostedKNNRelation: %v", err)
	}
	if maxScoreBits != 20 || pk.N.Cmp(r.scheme.PublicKey().N) != 0 {
		t.Fatalf("metadata mismatch: bits=%d", maxScoreBits)
	}
	if loaded.Name != db.Name || loaded.N != db.N || loaded.M != db.M || len(loaded.Records) != len(db.Records) {
		t.Fatalf("shape mismatch: %+v", loaded)
	}
	// Stored ciphertexts decrypt to the original attribute values.
	sk := r.scheme.KeyMaterial().Paillier
	rel := testRelation()
	for i, rec := range loaded.Records {
		for j, ct := range rec.Values {
			v, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if v.Int64() != rel.Rows[i][j] {
				t.Fatalf("record %d value %d = %v, want %d", i, j, v, rel.Rows[i][j])
			}
		}
	}
	if err := WriteHostedKNNRelation(&buf, nil, 20, r.scheme.PublicKey()); err == nil {
		t.Fatal("expected error for nil database")
	}
	if err := WriteHostedKNNRelation(&buf, db, 20, nil); err == nil {
		t.Fatal("expected error for nil public key")
	}
}

func TestJoinOwnerBundleRoundTrip(t *testing.T) {
	scheme, err := join.NewScheme(join.Params{KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 20})
	if err != nil {
		t.Fatal(err)
	}
	er, err := scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJoinOwnerBundle(&buf, scheme); err != nil {
		t.Fatalf("WriteJoinOwnerBundle: %v", err)
	}
	restored, err := ReadJoinOwnerBundle(&buf)
	if err != nil {
		t.Fatalf("ReadJoinOwnerBundle: %v", err)
	}
	// The restored scheme must issue tokens valid for the ORIGINAL
	// encrypted relation: the attribute permutation key survived, so the
	// permuted positions agree.
	tk1, err := scheme.NewToken(er, er, 0, 0, 1, 1, []int{2}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	tk2, err := restored.NewToken(er, er, 0, 0, 1, 1, []int{2}, nil, 1)
	if err != nil {
		t.Fatalf("restored NewToken: %v", err)
	}
	if tk1.JoinPos1 != tk2.JoinPos1 || tk1.ScorePos1 != tk2.ScorePos1 || tk1.Proj1[0] != tk2.Proj1[0] {
		t.Fatalf("restored token disagrees: %+v vs %+v", tk1, tk2)
	}
	if restored.PublicKey().N.Cmp(scheme.PublicKey().N) != 0 {
		t.Fatal("restored join scheme has different modulus")
	}
	if err := WriteJoinOwnerBundle(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("expected error for nil scheme")
	}
}
