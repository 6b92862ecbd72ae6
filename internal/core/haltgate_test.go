package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nra"
)

// TestFirstHaltDepthIsTheLemmaBound holds firstHaltDepth to the lemma it
// encodes: the least depth d >= 1 at which k <= m(d-1)+1, so that the top
// k need not hold two objects first seen at d.
func TestFirstHaltDepthIsTheLemmaBound(t *testing.T) {
	for m := 1; m <= 6; m++ {
		for k := 1; k <= 30; k++ {
			d := 1
			for k > m*(d-1)+1 {
				d++
			}
			if got := firstHaltDepth(m, k); got != d {
				t.Errorf("firstHaltDepth(%d, %d) = %d, want %d", m, k, got, d)
			}
		}
	}
}

// TestHaltGateK1HaltsAtDepthOne: at k = 1 a halt is possible at depth 1,
// and a Qry_F query whose one object tops every list halts there. (Qry_E
// and Qry_Ba track that object once, so they need a second depth for the
// k+1 items a halting test compares.)
func TestHaltGateK1HaltsAtDepthOne(t *testing.T) {
	r := getRig(t)
	rel := &dataset.Relation{Name: "top", Rows: [][]int64{
		{10, 20, 30},
		{50, 50, 50},
		{20, 10, 5},
		{5, 30, 10},
	}}
	er, err := r.scheme.EncryptRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	res, revealed := runQuery(t, r, er, []int{0, 1, 2}, nil, 1, Options{Mode: QryF})
	if !res.Halted || res.Depth != 1 {
		t.Fatalf("depth=%d halted=%v, want 1/true", res.Depth, res.Halted)
	}
	if len(revealed) != 1 || revealed[0].Obj != 1 || revealed[0].Worst != 150 {
		t.Fatalf("top-1 = %+v, want object 1 at 150", revealed)
	}
}

// gateRelation builds a relation on m lists whose query at k = m(d-1)
// halts exactly at depth d = firstHaltDepth(m, k): the m(d-1) rows above
// depth d hold distinct objects with large scores, each seen in one list
// only, and depth d holds one object x in every list. At depth d the top
// k are the early objects, and x's exact bound, which is also the unseen
// bound, lies below every one of them.
func gateRelation(m, d int) *dataset.Relation {
	early := m * (d - 1)
	rel := &dataset.Relation{Name: fmt.Sprintf("gate-m%d-d%d", m, d)}
	for o := 0; o < early; o++ {
		e, j := o/m, o%m
		row := make([]int64, m)
		for l := range row {
			row[l] = 1 // below x, so the row sorts past depth d elsewhere
		}
		row[j] = int64(1000 - 10*e)
		rel.Rows = append(rel.Rows, row)
	}
	x := make([]int64, m)
	for l := range x {
		x[l] = 50
	}
	rel.Rows = append(rel.Rows, x)
	return rel
}

// TestHaltGateHaltsAtFirstHaltDepth: a query built to halt at the first
// depth a halt is possible halts there, in Qry_F and Qry_E, with the
// plaintext top-k. A gate that skips one depth too many halts a depth
// later and fails it.
func TestHaltGateHaltsAtFirstHaltDepth(t *testing.T) {
	r := getRig(t)
	for _, m := range []int{2, 3} {
		for _, d := range []int{2, 3} {
			rel := gateRelation(m, d)
			k := m * (d - 1)
			if got := firstHaltDepth(m, k); got != d {
				t.Fatalf("m=%d k=%d: firstHaltDepth = %d, want %d", m, k, got, d)
			}
			er, err := r.scheme.EncryptRelation(rel)
			if err != nil {
				t.Fatal(err)
			}
			attrs := make([]int, m)
			for j := range attrs {
				attrs[j] = j
			}
			kth, err := nra.KthScore(rel, attrs, nil, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{QryF, QryE} {
				res, revealed := runQuery(t, r, er, attrs, nil, k, Options{Mode: mode})
				if !res.Halted || res.Depth != d {
					t.Fatalf("m=%d k=%d %v: depth=%d halted=%v, want %d/true", m, k, mode, res.Depth, res.Halted, d)
				}
				assertTopK(t, rel, attrs, nil, k, kth, revealed)
			}
		}
	}
}

// TestHaltGateZeroWeights: with every weight zero the unseen bound is 0
// at every depth and every k-set is a top-k. The query halts at the first
// depth a halt is possible, no earlier, with an answer nra.KthScore
// accepts.
func TestHaltGateZeroWeights(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	rel := figure3()
	attrs, weights := []int{0, 1, 2}, []int64{0, 0, 0}
	const k = 2
	kth, err := nra.KthScore(rel, attrs, weights, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{Mode: QryF}, {Mode: QryE}, {Mode: QryBa, BatchDepth: k}} {
		res, revealed := runQuery(t, r, er, attrs, weights, k, opts)
		if want := firstHaltDepth(len(attrs), k); !res.Halted || res.Depth != want {
			t.Fatalf("%v: depth=%d halted=%v, want %d/true", opts.Mode, res.Depth, res.Halted, want)
		}
		assertTopK(t, rel, attrs, weights, k, kth, revealed)
	}
}

// assertTopK fails unless revealed is k distinct objects whose exact
// scores all reach the k-th largest, kth: a top-k up to ties.
func assertTopK(t *testing.T, rel *dataset.Relation, attrs []int, weights []int64, k int, kth int64, revealed []RevealedResult) {
	t.Helper()
	if len(revealed) != k {
		t.Fatalf("%d results, want %d", len(revealed), k)
	}
	seen := map[int]bool{}
	for _, g := range revealed {
		if seen[g.Obj] {
			t.Fatalf("object %d returned twice: %+v", g.Obj, revealed)
		}
		seen[g.Obj] = true
		if s := rel.Score(g.Obj, attrs, weights); s < kth {
			t.Fatalf("object %d scores %d, below the k-th score %d: %+v", g.Obj, s, kth, revealed)
		}
	}
}
