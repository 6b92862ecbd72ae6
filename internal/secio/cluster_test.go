package secio

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/secerr"
	"repro/internal/shard"
	"repro/internal/wire"
)

// TestHostedSubsetRoundTrip pins the handoff format: a member's share is
// a "hosted-mutable" stream whose shards, epoch, id space and placement
// survive a write/read cycle intact.
func TestHostedSubsetRoundTrip(t *testing.T) {
	r := getRig(t)
	sh, err := shard.Encrypt(r.scheme, testRelation(), 4)
	if err != nil {
		t.Fatal(err)
	}
	indices := []int{1, 3}
	st, err := mutate.New([]*core.EncryptedRelation{sh.Shards[1], sh.Shards[3]}, sh.N)
	if err != nil {
		t.Fatal(err)
	}
	st.Epoch = 7
	var buf bytes.Buffer
	if err := WriteMutableHosted(&buf, st, 4, indices, r.scheme.PublicKey()); err != nil {
		t.Fatalf("WriteMutableHosted: %v", err)
	}
	got, total, gotIdx, pk, err := ReadMutableHosted(&buf)
	if err != nil {
		t.Fatalf("ReadMutableHosted: %v", err)
	}
	if total != 4 || got.Epoch != 7 || got.IDSpace != sh.N {
		t.Fatalf("total=%d epoch=%d idspace=%d, want 4/7/%d", total, got.Epoch, got.IDSpace, sh.N)
	}
	if pk.N.Cmp(r.scheme.PublicKey().N) != 0 {
		t.Fatal("public key modulus changed in round trip")
	}
	if len(gotIdx) != 2 || gotIdx[0] != 1 || gotIdx[1] != 3 {
		t.Fatalf("indices = %v, want [1 3]", gotIdx)
	}
	for i, s := range got.Shards {
		er, want := s.ER, st.Shards[i].ER
		if er.N != want.N || er.M != want.M || er.MaxScoreBits != want.MaxScoreBits {
			t.Fatalf("shard %d shape changed: %d/%d/%d vs %d/%d/%d",
				i, er.N, er.M, er.MaxScoreBits, want.N, want.M, want.MaxScoreBits)
		}
	}
}

// TestHostedSubsetRejectsBadPlacement pins the placement validation a
// corrupt or mis-cut handoff file must fail on: the writer refuses the
// placement, and a stream that carries it anyway is refused typed.
func TestHostedSubsetRejectsBadPlacement(t *testing.T) {
	r := getRig(t)
	er, err := r.scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	pk := r.scheme.PublicKey()
	cases := []struct {
		name    string
		total   int
		indices []int
		shards  []*core.EncryptedRelation
	}{
		{"index out of range", 2, []int{2}, []*core.EncryptedRelation{er}},
		{"duplicate index", 4, []int{1, 1}, []*core.EncryptedRelation{er, er}},
		{"zero total", 0, []int{0}, []*core.EncryptedRelation{er}},
		{"count mismatch", 4, []int{0, 1}, []*core.EncryptedRelation{er}},
		{"more indices than total", 1, []int{0, 1}, []*core.EncryptedRelation{er, er}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := mutate.New(tc.shards, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteMutableHosted(io.Discard, st, tc.total, tc.indices, pk); err == nil {
				t.Fatal("bad placement accepted")
			}
			var buf bytes.Buffer
			if err := write(&buf, "hosted-mutable", func(w *wire.Writer) {
				putMutable(w, st, pk)
				w.Int("total", tc.total)
				w.Ints("indices", tc.indices)
			}); err != nil {
				t.Fatal(err)
			}
			if _, _, _, _, err := ReadMutableHosted(&buf); !errors.Is(err, secerr.ErrBadRequest) {
				t.Fatalf("stream with a bad placement read: err = %v, want bad_request", err)
			}
		})
	}
}

// TestCandidatesRoundTrip runs a real per-shard candidate scan and pins
// that its merge view — items, residual bounds, depth, halted — crosses
// the wire format bit-identically.
func TestCandidatesRoundTrip(t *testing.T) {
	r := getRig(t)
	er, err := r.scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(r.client, er)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := engine.SecQueryCandidates(context.Background(), tk, core.Options{Mode: core.QryE})
	if err != nil {
		t.Fatalf("SecQueryCandidates: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCandidates(&buf, cs); err != nil {
		t.Fatalf("WriteCandidates: %v", err)
	}
	got, err := ReadCandidates(&buf)
	if err != nil {
		t.Fatalf("ReadCandidates: %v", err)
	}
	if got.Depth != cs.Depth || got.Halted != cs.Halted {
		t.Fatalf("scalar fields changed: depth %d/%d halted %v/%v", got.Depth, cs.Depth, got.Halted, cs.Halted)
	}
	if len(got.Items) != len(cs.Items) || len(got.Residuals) != len(cs.Residuals) {
		t.Fatalf("lengths changed: items %d/%d residuals %d/%d",
			len(got.Items), len(cs.Items), len(got.Residuals), len(cs.Residuals))
	}
	for i := range cs.Items {
		for _, col := range []int{protocols.ColWorst, protocols.ColBest} {
			if got.Items[i].Scores[col].C.Cmp(cs.Items[i].Scores[col].C) != 0 {
				t.Fatalf("item %d score column %d changed", i, col)
			}
		}
	}
	for i := range cs.Residuals {
		if got.Residuals[i].C.Cmp(cs.Residuals[i].C) != 0 {
			t.Fatalf("residual %d changed", i)
		}
	}
}

// TestCandidatesRejectsNilResidual pins that a half-built candidate set
// cannot be serialized silently.
func TestCandidatesRejectsNilResidual(t *testing.T) {
	var buf bytes.Buffer
	cs := &core.CandidateSet{Residuals: []*paillier.Ciphertext{nil}}
	if err := WriteCandidates(&buf, cs); err == nil {
		t.Fatal("nil residual accepted")
	}
}
