package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nra"
	"repro/internal/paillier"
	"repro/internal/secerr"
)

// TestMarkedDuplicatesAtMaximalScores runs Qry_F where one object tops
// all m = 3 lists at depth 0, so its third copy is marked with u = 2, at
// the largest score MaxScoreBits admits and weights of 2^41 - 1, the
// largest at which the oracle's int64 still sums three maximal scores.
// Both the revealed objects and their scores must match nra.TopKExact:
// a marked copy keeps its digests, so one that kept its scores too would
// show up in the top-k beside its first copy.
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

// TestCrossDepthMarks runs Qry_F on relations whose objects recur in
// other lists at later depths, one of them with an object in all m = 3
// lists at three distinct depths at the largest score and weight
// TestMarkedDuplicatesAtMaximalScores uses, and decrypts T as the run
// left it: halted, and after a full scan. T holds one row per (list j,
// depth e) read. Each must carry exactly
//
//	W = Seen - u*shift,  B = SecBest's bound at e - u*shift
//
// where Seen sums every score of the row's object at depths <= e and u
// counts its copies read after it, as MarkEarlier marks them: in a list
// after j at depth e, and in any other list at a later depth. So each
// object's newest copy is its one live row, holding every score of it
// read so far. Qry_F's and Qry_E's answers must match
// nra.TopKExact.
func TestCrossDepthMarks(t *testing.T) {
	r := getRig(t)
	top := int64(1)<<r.scheme.Params().MaxScoreBits - 1
	w := int64(1)<<41 - 1
	type relCase struct {
		rel     *dataset.Relation
		weights []int64
	}
	cases := []relCase{{
		// Ties go to the lower id, so object 2 sits at depth 0 of list 0,
		// 1 of list 1 and 2 of list 2: its first row takes two marks.
		rel: &dataset.Relation{Name: "staircase", Rows: [][]int64{
			{5, top, top},
			{4, 3, top},
			{top, top, top},
			{3, 4, 1},
			{2, 2, 2},
			{1, 1, 0},
		}},
		weights: []int64{w, w, w},
	}}
	rng := rand.New(rand.NewSource(50))
	for c := 0; c < 3; c++ {
		rel := &dataset.Relation{Name: fmt.Sprintf("random-%d", c)}
		for i := 0; i < 7; i++ {
			rel.Rows = append(rel.Rows, []int64{rng.Int63n(40), rng.Int63n(40), rng.Int63n(40)})
		}
		cases = append(cases, relCase{rel: rel})
	}
	attrs := []int{0, 1, 2}
	for _, tc := range cases {
		er, err := r.scheme.EncryptRelation(tc.rel)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := NewEngine(r.client, er)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2} {
			want, err := nra.TopKExact(tc.rel, attrs, tc.weights, k)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := r.scheme.Token(er, attrs, tc.weights, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{Mode: QryF}, {Mode: QryF, ExactScan: true}} {
				name := fmt.Sprintf("%s k=%d exact=%v", tc.rel.Name, k, opts.ExactScan)
				info, err := engine.run(context.Background(), tk, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkAnswer(t, r, er, tc.rel, tc.weights, name, info.res, want)
				got := make([]string, len(info.ranked))
				for i, it := range info.ranked {
					got[i] = fmt.Sprint(r.decSigned(t, it.Scores[0]), r.decSigned(t, it.Scores[1]))
				}
				exp, maxU := markedT(tc.rel, attrs, tc.weights, info.res.Depth, engine.duplicateShift(tk))
				if tc.weights != nil && opts.ExactScan && maxU != int64(len(attrs)-1) {
					t.Fatalf("%s: no row takes %d marks (at most %d)", name, len(attrs)-1, maxU)
				}
				sort.Strings(got)
				sort.Strings(exp)
				if fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Errorf("%s: T at depth %d holds (W, B) rows\n%v\nwant\n%v", name, info.res.Depth, got, exp)
				}
			}
			res, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE})
			if err != nil {
				t.Fatal(err)
			}
			checkAnswer(t, r, er, tc.rel, tc.weights, fmt.Sprintf("%s k=%d Qry_E", tc.rel.Name, k), res, want)
		}
	}
}

// checkAnswer reveals res and holds it to the oracle: the object at rank
// i has the oracle's i-th exact score (ties may swap objects), and its
// revealed worst score is that score after a full scan, at most it
// after a halt (NRA returns lower bounds).
func checkAnswer(t *testing.T, r *testRig, er *EncryptedRelation, rel *dataset.Relation, weights []int64, name string, res *QueryResult, want []nra.Result) {
	t.Helper()
	rev, err := r.scheme.NewRevealer(er.N)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rev.RevealTopK(res.Items)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	full := res.Depth == er.N
	for i := range want {
		var exact int64
		for j, x := range rel.Rows[got[i].Obj] {
			if weights != nil {
				x *= weights[j]
			}
			exact += x
		}
		if exact != want[i].Worst || got[i].Worst > exact || full && got[i].Worst != exact {
			t.Errorf("%s: top-%d is object %d (exact %d) at %d, want an object of exact score %d", name, i+1, got[i].Obj, exact, got[i].Worst, want[i].Worst)
		}
	}
}

// decSigned decrypts a ciphertext to its signed plaintext.
func (r *testRig) decSigned(t *testing.T, c *paillier.Ciphertext) *big.Int {
	t.Helper()
	v, err := r.scheme.KeyMaterial().Paillier.DecryptSigned(c)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// markedT is the plaintext of Qry_F's T after depths 0..depth-1 of the
// relation's sorted lists: one "W B" row per (list, depth), marked as
// TestCrossDepthMarks states, and the most marks a row takes.
func markedT(rel *dataset.Relation, attrs []int, weights []int64, depth int, shift *big.Int) (rows []string, maxU int64) {
	lists, err := sortedPlainLists(rel, attrs, func(i int) int { return i })
	if err != nil {
		panic(err)
	}
	m := len(lists)
	score := func(j, e int) *big.Int {
		x := big.NewInt(lists[j][e].score)
		if weights != nil {
			x.Mul(x, big.NewInt(weights[j]))
		}
		return x
	}
	for e := 0; e < depth; e++ {
		for j := 0; j < m; j++ {
			obj := lists[j][e].obj
			W, B, u := score(j, e), score(j, e), int64(0)
			for l := 0; l < m; l++ {
				if l == j {
					continue
				}
				bound := score(l, e) // list l's bottom at depth e
				for at := 0; at < depth; at++ {
					if lists[l][at].obj != obj {
						continue
					}
					if at <= e {
						W.Add(W, score(l, at))
						bound = score(l, at)
					}
					if at > e || at == e && l > j {
						u++
					}
				}
				B.Add(B, bound)
			}
			down := new(big.Int).Mul(shift, big.NewInt(u))
			rows, maxU = append(rows, fmt.Sprint(W.Sub(W, down), B.Sub(B, down))), max(maxU, u)
		}
	}
	return rows, maxU
}
