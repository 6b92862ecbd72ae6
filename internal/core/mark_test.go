package core

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nra"
	"repro/internal/secerr"
)

// TestMarkedDuplicatesAtMaximalScores runs Qry_F where one object tops
// all m = 3 lists at depth 0, so its third copy is marked with u = 2, at
// the largest score MaxScoreBits admits and weights of 2^41 - 1, the
// largest at which the oracle's int64 still sums three maximal scores.
// Both the revealed objects and their scores must match nra.TopKExact:
// a marked copy that kept its digests or its scores would show up in the
// top-k beside its first copy.
func TestMarkedDuplicatesAtMaximalScores(t *testing.T) {
	r := getRig(t)
	top := int64(1)<<r.scheme.Params().MaxScoreBits - 1
	rel := &dataset.Relation{Name: "max", Rows: [][]int64{
		{top, top, top},
		{top - 1, top - 2, 5},
		{top - 2, top - 1, top - 1},
		{7, 3, top - 2},
		{1, 2, 3},
	}}
	er, err := r.scheme.EncryptRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	attrs, w := []int{0, 1, 2}, int64(1)<<41-1
	weights := []int64{w, w, w}
	for _, k := range []int{2, 3} {
		want, err := nra.TopKExact(rel, attrs, weights, k)
		if err != nil {
			t.Fatal(err)
		}
		_, got := runQuery(t, r, er, attrs, weights, k, Options{Mode: QryF})
		if len(got) != k {
			t.Fatalf("k=%d: %d results", k, len(got))
		}
		for i := range want {
			if got[i].Obj != want[i].Obj || got[i].Worst != want[i].Worst {
				t.Errorf("k=%d: top-%d is object %d at %d, want %d at %d", k, i+1, got[i].Obj, got[i].Worst, want[i].Obj, want[i].Worst)
			}
		}
	}
}

// TestMagBitsCoversMarkedRows holds MagBits to every value a Qry_F row
// can carry in W or B: a real one in [0, m*maxWeight*maxScore], below the
// engine's duplicate shift, and a marked one down to -(m-1)*shift. Each
// must lie strictly inside 2^MagBits, the bound maskedDiff sizes its mask
// by.
func TestMagBitsCoversMarkedRows(t *testing.T) {
	one := big.NewInt(1)
	for _, maxScoreBits := range []int{1, 8, 20} {
		e := &Engine{er: &EncryptedRelation{MaxScoreBits: maxScoreBits}}
		for m := 1; m <= 8; m++ {
			// w = 0 stands for a token with no weights, every weight 1.
			for _, w := range []int64{0, 1, 3, 1<<20 - 1} {
				tk := &Token{K: 1, Lists: make([]int, m)}
				weight := int64(1)
				if w > 0 {
					weight = w
					for range tk.Lists {
						tk.Weights = append(tk.Weights, w)
					}
				}
				maxScore := new(big.Int).Sub(new(big.Int).Lsh(one, uint(maxScoreBits)), one)
				maxReal := new(big.Int).Mul(maxScore, big.NewInt(int64(m)*weight))
				shift := e.duplicateShift(tk)
				lowest := new(big.Int).Mul(shift, big.NewInt(int64(m-1)))
				bound := new(big.Int).Lsh(one, uint(MagBits(maxScoreBits, tk)))
				if maxReal.Cmp(shift) >= 0 {
					t.Errorf("maxScoreBits %d, m %d, weight %d: a real score reaches %v, the shift is %v", maxScoreBits, m, w, maxReal, shift)
				}
				if lowest.Cmp(bound) >= 0 || maxReal.Cmp(bound) >= 0 {
					t.Errorf("maxScoreBits %d, m %d, weight %d: rows reach -%v and %v, outside 2^MagBits = %v", maxScoreBits, m, w, lowest, maxReal, bound)
				}
			}
		}
	}
}

// TestNegativeWeightRefused: a token off the wire, not built by
// Scheme.TokenFor, may carry a negative weight, and S1 must refuse it
// typed. A negative real W could fall below a marked duplicate and lose
// its place in the top-k to it: a wrong answer, not a failure.
func TestNegativeWeightRefused(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	engine, err := NewEngine(r.client, er)
	if err != nil {
		t.Fatal(err)
	}
	tk := &Token{K: 2, Lists: []int{0, 1, 2}, Weights: []int64{1, -1, 1}}
	for _, mode := range []Mode{QryF, QryE, QryBa} {
		if _, err := engine.SecQuery(context.Background(), tk, Options{Mode: mode}); !errors.Is(err, secerr.ErrInvalidToken) {
			t.Errorf("%v: SecQuery with a negative weight: err = %v, want ErrInvalidToken", mode, err)
		}
	}
}
