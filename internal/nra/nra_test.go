package nra

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// paperRelation reproduces the running example of Figure 3: five objects
// X1..X5 (ids 0..4) over three attributes R1, R2, R3.
func paperRelation() *dataset.Relation {
	return &dataset.Relation{
		Name: "fig3",
		Rows: [][]int64{
			// R1, R2, R3
			{10, 3, 2}, // X1
			{8, 8, 0},  // X2
			{5, 7, 6},  // X3
			{3, 2, 8},  // X4
			{1, 1, 1},  // X5
		},
	}
}

func TestSortedListsMatchFigure3(t *testing.T) {
	rel := paperRelation()
	lists, err := SortedLists(rel, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// R1 sorted: X1:10, X2:8, X3:5, X4:3, X5:1
	wantR1 := []Item{{0, 10}, {1, 8}, {2, 5}, {3, 3}, {4, 1}}
	for i, w := range wantR1 {
		if lists[0][i] != w {
			t.Fatalf("R1[%d] = %v, want %v", i, lists[0][i], w)
		}
	}
	// R3 sorted: X4:8, X3:6, X1:2, X5:1, X2:0
	wantR3 := []Item{{3, 8}, {2, 6}, {0, 2}, {4, 1}, {1, 0}}
	for i, w := range wantR3 {
		if lists[2][i] != w {
			t.Fatalf("R3[%d] = %v, want %v", i, lists[2][i], w)
		}
	}
}

func TestRunPaperExampleTop2(t *testing.T) {
	// The paper's example: top-2 with F = sum of all three attributes
	// yields X3 (18) and X2 (16), halting at depth 3 (Figure 3c).
	rel := paperRelation()
	lists, err := SortedLists(rel, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, depth, err := Run(lists, 2)
	if err != nil {
		t.Fatal(err)
	}
	if depth != 3 {
		t.Fatalf("halting depth = %d, want 3 (Figure 3c)", depth)
	}
	if len(res) != 2 || res[0].Obj != 2 || res[1].Obj != 1 {
		t.Fatalf("top-2 = %+v, want X3 then X2", res)
	}
	if res[0].Worst != 18 || res[1].Worst != 16 {
		t.Fatalf("worst scores = %d,%d want 18,16", res[0].Worst, res[1].Worst)
	}
}

func TestRunMatchesExactTopK(t *testing.T) {
	// Property: on random relations, exact NRA returns a valid top-k
	// (same score multiset as the full-scan ground truth).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		m := 2 + rng.Intn(4)
		rel := &dataset.Relation{Name: "rand", Rows: make([][]int64, n)}
		for i := range rel.Rows {
			row := make([]int64, m)
			for j := range row {
				row[j] = int64(rng.Intn(50))
			}
			rel.Rows[i] = row
		}
		attrs := make([]int, m)
		for j := range attrs {
			attrs[j] = j
		}
		k := 1 + rng.Intn(5)
		lists, err := SortedLists(rel, attrs, nil)
		if err != nil {
			return false
		}
		got, _, err := Run(lists, k)
		if err != nil {
			return false
		}
		want, err := TopKExact(rel, attrs, nil, k)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		gs := scoresOf(rel, attrs, got)
		ws := make([]int64, len(want))
		for i, w := range want {
			ws[i] = w.Worst
		}
		sort.Slice(gs, func(i, j int) bool { return gs[i] > gs[j] })
		for i := range gs {
			if gs[i] != ws[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStrictRunIsAlwaysValidOnCorrelatedData(t *testing.T) {
	spec := dataset.Spec{Name: "c", N: 300, M: 3, MaxScore: 200, Shape: dataset.ShapeGaussian, Correlation: 0.7}
	attrs := []int{0, 1, 2}
	for seed := int64(0); seed < 10; seed++ {
		rel, err := dataset.Generate(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		lists, err := SortedLists(rel, attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Run(lists, 5)
		if err != nil {
			t.Fatal(err)
		}
		kth, err := KthScore(rel, attrs, nil, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if score := rel.Score(r.Obj, attrs, nil); score < kth {
				t.Fatalf("seed %d: exact NRA returned obj %d with score %d < kth %d",
					seed, r.Obj, score, kth)
			}
		}
	}
}

func TestWeightedQueries(t *testing.T) {
	rel := paperRelation()
	attrs := []int{0, 1}
	weights := []int64{3, 1}
	lists, err := SortedLists(rel, attrs, weights)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Run(lists, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopKExact(rel, attrs, weights, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Obj != want[0].Obj || got[0].Worst != want[0].Worst {
		t.Fatalf("weighted top-1 = %+v, want %+v", got[0], want[0])
	}
}

func TestBoundsAreBounds(t *testing.T) {
	rel := paperRelation()
	attrs := []int{0, 1, 2}
	lists, _ := SortedLists(rel, attrs, nil)
	res, _, err := Run(lists, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		true_ := rel.Score(r.Obj, attrs, nil)
		if r.Worst > true_ || r.Best < true_ {
			t.Fatalf("obj %d: bounds [%d,%d] do not contain true score %d",
				r.Obj, r.Worst, r.Best, true_)
		}
	}
}

func TestValidation(t *testing.T) {
	rel := paperRelation()
	if _, err := SortedLists(rel, nil, nil); err == nil {
		t.Fatal("expected error for no attributes")
	}
	if _, err := SortedLists(rel, []int{9}, nil); err == nil {
		t.Fatal("expected error for attribute out of range")
	}
	if _, err := SortedLists(rel, []int{0}, []int64{1, 2}); err == nil {
		t.Fatal("expected error for weight length mismatch")
	}
	if _, err := SortedLists(rel, []int{0}, []int64{-1}); err == nil {
		t.Fatal("expected error for negative weight")
	}
	if _, err := SortedLists(nil, []int{0}, nil); err == nil {
		t.Fatal("expected error for nil relation")
	}
	lists, _ := SortedLists(rel, []int{0}, nil)
	if _, _, err := Run(lists, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, _, err := Run(nil, 1); err == nil {
		t.Fatal("expected error for no lists")
	}
	if _, _, err := Run([][]Item{{{0, 1}}, {}}, 1); err == nil {
		t.Fatal("expected error for ragged lists")
	}
	if _, err := TopKExact(nil, []int{0}, nil, 1); err == nil {
		t.Fatal("expected error for nil relation")
	}
	if _, err := TopKExact(rel, []int{0}, nil, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestKLargerThanN(t *testing.T) {
	rel := paperRelation()
	lists, _ := SortedLists(rel, []int{0, 1, 2}, nil)
	res, depth, err := Run(lists, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != rel.N() {
		t.Fatalf("k>n should clamp to n, got %d", len(res))
	}
	if depth != rel.N() {
		t.Fatalf("full scan expected, depth = %d", depth)
	}
	// At full depth the bounds are exact.
	for _, r := range res {
		if r.Worst != r.Best {
			t.Fatalf("obj %d bounds not tight at full scan: [%d,%d]", r.Obj, r.Worst, r.Best)
		}
	}
}

func scoresOf(rel *dataset.Relation, attrs []int, res []Result) []int64 {
	out := make([]int64, len(res))
	for i, r := range res {
		out[i] = rel.Score(r.Obj, attrs, nil)
	}
	return out
}
