package main

import (
	"testing"

	"repro/sectopk"
)

func TestCheckTopKTiesAndWrongScores(t *testing.T) {
	rows := [][]int64{{5, 5}, {9, 1}, {1, 9}, {2, 2}, {8, 8}}
	q := sectopk.Query{Attrs: []int{0, 1}, K: 3}
	// Rows 0, 1 and 2 all score 10: any two of them after row 4 are right.
	for _, ok := range [][]sectopk.Result{
		{{Object: 4, Score: 16}, {Object: 0, Score: 10}, {Object: 1, Score: 10}},
		{{Object: 4, Score: 16}, {Object: 2, Score: 10}, {Object: 0, Score: 10}},
	} {
		if err := checkTopK(ok, rows, q); err != nil {
			t.Errorf("tie reordering %v rejected: %v", ok, err)
		}
	}
	for name, bad := range map[string][]sectopk.Result{
		"wrong score":      {{Object: 4, Score: 16}, {Object: 0, Score: 10}, {Object: 1, Score: 9}},
		"object not score": {{Object: 4, Score: 16}, {Object: 3, Score: 10}, {Object: 1, Score: 10}},
		"repeated object":  {{Object: 4, Score: 16}, {Object: 0, Score: 10}, {Object: 0, Score: 10}},
		"short":            {{Object: 4, Score: 16}, {Object: 0, Score: 10}},
		"wrong order":      {{Object: 0, Score: 10}, {Object: 4, Score: 16}, {Object: 1, Score: 10}},
	} {
		if err := checkTopK(bad, rows, q); err == nil {
			t.Errorf("%s accepted: %v", name, bad)
		}
	}
}

func TestCheckKNN(t *testing.T) {
	rel := &sectopk.Relation{Name: "r", Rows: [][]int64{{0, 0}, {3, 4}, {4, 3}, {10, 10}}}
	q := sectopk.KNNQuery{Point: []int64{0, 0}, K: 2}
	// Rows 1 and 2 are both at squared distance 25.
	for _, second := range []int{1, 2} {
		ok := []sectopk.KNNResult{{Object: 0, Distance: 0}, {Object: second, Distance: 25}}
		if err := checkKNN(ok, rel, q); err != nil {
			t.Errorf("tie choice %d rejected: %v", second, err)
		}
	}
	bad := []sectopk.KNNResult{{Object: 0, Distance: 0}, {Object: 3, Distance: 25}}
	if err := checkKNN(bad, rel, q); err == nil {
		t.Error("object at the wrong distance accepted")
	}
}

func TestCheckJoin(t *testing.T) {
	in := newInputs(3)
	want, err := sectopk.PlainTopKJoin(in.join1, in.join2, in.joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != in.joinQuery.K {
		t.Fatalf("generated join has %d results, want %d", len(want), in.joinQuery.K)
	}
	if err := checkJoin(want, in.join1, in.join2, in.joinQuery); err != nil {
		t.Errorf("oracle's own answer rejected: %v", err)
	}
	wrong := append([]sectopk.JoinResult(nil), want...)
	wrong[1] = sectopk.JoinResult{Score: want[1].Score, Attrs: []int64{-1, -1}}
	if err := checkJoin(wrong, in.join1, in.join2, in.joinQuery); err == nil {
		t.Error("tuple that is not in the join accepted")
	}
	wrong[1] = sectopk.JoinResult{Score: want[1].Score + 1, Attrs: want[1].Attrs}
	if err := checkJoin(wrong, in.join1, in.join2, in.joinQuery); err == nil {
		t.Error("wrong score accepted")
	}
}

// The workloads rely on these properties of the generated inputs holding
// at every seed.
func TestInputsAreSeedStable(t *testing.T) {
	a, b := newInputs(7), newInputs(7)
	for i := range a.topk.Rows {
		for j := range a.topk.Rows[i] {
			if a.topk.Rows[i][j] != b.topk.Rows[i][j] {
				t.Fatal("the same seed generated different relations")
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		in := newInputs(seed)
		// Perfect rank correlation: ordering by any attribute orders by all.
		ranked := rankedRows(in.topk.Rows)
		for r := 1; r < len(ranked); r++ {
			hi, lo := in.topk.Rows[ranked[r-1]], in.topk.Rows[ranked[r]]
			for j := range hi {
				if hi[j] <= lo[j] {
					t.Fatalf("seed %d: rows ranked %d and %d are not ordered alike in attribute %d", seed, r-1, r, j)
				}
			}
		}
		matches := 0
		for _, r1 := range in.join1.Rows {
			for _, r2 := range in.join2.Rows {
				if r1[0] == r2[0] {
					matches++
				}
			}
		}
		if matches != joinMatches {
			t.Errorf("seed %d: %d joining pairs, want %d", seed, matches, joinMatches)
		}
		rows := cloneRows(in.topk.Rows)
		for i := 0; i < 8; i++ {
			x, y := in.nextSwap(i, rows)
			if x == y {
				t.Fatalf("seed %d: delta %d swaps row %d with itself", seed, i, x)
			}
			top := rankedRows(rows)
			isTop := func(id int) bool { return id == top[0] || id == top[1] || id == top[2] || id == top[3] }
			if i%4 == 3 {
				if !(x == top[0] && y == top[1]) {
					t.Errorf("seed %d: delta %d should swap the top two rows", seed, i)
				}
			} else if isTop(x) || isTop(y) {
				t.Errorf("seed %d: delta %d touches the top four rows", seed, i)
			}
			rows[x], rows[y] = rows[y], rows[x]
		}
	}
}
