package sectopk_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/sectopk"
)

// TestDefaultOptionsMatchExactTopK runs Execute with no query options in
// every mode and holds each answer to the full-scan oracle: the revealed
// objects' true scores, sorted, must be nra.TopKExact's score sequence,
// and each revealed score a lower bound on its object's true score.
// Scores, not objects, are compared so that ties may break either way.
//
// The Gaussian seeds are ones Algorithm 3 line 10's relaxed halting test
// answers wrongly: seeds 2 and 5 in Qry_F and Qry_E, seed 5 in Qry_Ba.
func TestDefaultOptionsMatchExactTopK(t *testing.T) {
	ctx := context.Background()
	st := newStack(t, stackSpec{})
	owner, cc, dc := st.owner, st.cc, st.dc
	gaussian := func(n int, seed int64) *dataset.Relation {
		rel, err := dataset.Generate(dataset.Spec{Name: "gauss", N: n, M: 3, MaxScore: 1000,
			Shape: dataset.ShapeGaussian, Correlation: 0.7}, seed)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	all := []int{0, 1, 2}
	cases := []struct {
		name string
		rel  *dataset.Relation
		q    sectopk.Query
	}{
		{"gaussian seed 2", gaussian(40, 2), sectopk.Query{Attrs: all, K: 3}},
		{"gaussian seed 5", gaussian(40, 5), sectopk.Query{Attrs: all, K: 3}},
		// Four rows score 15: the top 3 cut through the tie.
		{"tied scores", &dataset.Relation{Name: "ties", Rows: [][]int64{
			{9, 1, 5}, {5, 5, 5}, {1, 9, 5}, {5, 9, 1}, {7, 3, 2}, {2, 2, 2}, {3, 3, 3}, {0, 0, 0},
		}}, sectopk.Query{Attrs: all, K: 3}},
		{"k = n", &dataset.Relation{Name: "whole", Rows: demoRelation().Rows}, sectopk.Query{Attrs: all, K: 5}},
		{"zero weight", gaussian(12, 3), sectopk.Query{Attrs: all, Weights: []int64{2, 0, 1}, K: 3}},
	}
	for i, tc := range cases {
		id := fmt.Sprintf("diff%d", i)
		er, err := owner.Encrypt(&sectopk.Relation{Name: tc.rel.Name, Rows: tc.rel.Rows})
		if err != nil {
			t.Fatalf("%s: Encrypt: %v", tc.name, err)
		}
		if err := cc.Register(id, owner.Keys()); err != nil {
			t.Fatalf("%s: Register: %v", tc.name, err)
		}
		if err := dc.Host(ctx, id, er); err != nil {
			t.Fatalf("%s: Host: %v", tc.name, err)
		}
		want := []int64{}
		for _, r := range wantTopK(t, tc.rel.Rows, tc.q) {
			want = append(want, r.Score)
		}
		tk, err := owner.Token(er, tc.q)
		if err != nil {
			t.Fatalf("%s: Token: %v", tc.name, err)
		}
		for _, mode := range []sectopk.Mode{sectopk.ModeFull, sectopk.ModeEliminate, sectopk.ModeBatched} {
			// ModeFull is the zero value, so its query passes no option.
			opts := []sectopk.QueryOption{sectopk.WithMode(mode)}
			if mode == sectopk.ModeFull {
				opts = nil
			}
			ans, err := dc.Execute(ctx, sectopk.TopKRequest(id, tk, opts...))
			if err != nil {
				t.Fatalf("%s %v: Execute: %v", tc.name, mode, err)
			}
			got, err := owner.Reveal(er, ans.TopK)
			if err != nil {
				t.Fatalf("%s %v: Reveal: %v", tc.name, mode, err)
			}
			scores := make([]int64, len(got))
			for j, g := range got {
				scores[j] = tc.rel.Score(g.Object, tc.q.Attrs, tc.q.Weights)
				if g.Score > scores[j] {
					t.Errorf("%s %v: object %d revealed score %d above its true score %d",
						tc.name, mode, g.Object, g.Score, scores[j])
				}
			}
			sort.Slice(scores, func(a, b int) bool { return scores[a] > scores[b] })
			if !reflect.DeepEqual(scores, want) {
				t.Errorf("%s %v (depth %d): top-%d true scores %v, exact %v",
					tc.name, mode, ans.TopK.Depth, tc.q.K, scores, want)
			}
		}
	}
}
