// Package nra implements Fagin's No-Random-Access algorithm (Algorithm 1
// of the paper, from Fagin, Lotem, Naor PODS'01) over plaintext sorted
// lists. It is the reference the encrypted engine is tested against, the
// baseline for the overhead benchmarks, and — in its paper-variant form —
// an exact plaintext mirror of SecQuery's bookkeeping so the encrypted
// engine can be checked round for round.
package nra

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dataset"
)

// Item is one sorted-list entry: an object id and its local score at this
// position.
type Item struct {
	Obj   int
	Score int64
}

// SortedLists builds the descending sorted list for each requested
// attribute (the set S = {L_1..L_m} of Section 3.4; the paper's example
// runs descending, largest local score first).
func SortedLists(rel *dataset.Relation, attrs []int, weights []int64) ([][]Item, error) {
	if rel == nil || rel.N() == 0 {
		return nil, errors.New("nra: empty relation")
	}
	if len(attrs) == 0 {
		return nil, errors.New("nra: no attributes selected")
	}
	if weights != nil && len(weights) != len(attrs) {
		return nil, fmt.Errorf("nra: %d weights for %d attributes", len(weights), len(attrs))
	}
	out := make([][]Item, len(attrs))
	for li, a := range attrs {
		if a < 0 || a >= rel.M() {
			return nil, fmt.Errorf("nra: attribute %d out of range [0,%d)", a, rel.M())
		}
		w := int64(1)
		if weights != nil {
			w = weights[li]
			if w < 0 {
				return nil, fmt.Errorf("nra: negative weight %d (monotone scoring requires w >= 0)", w)
			}
		}
		list := make([]Item, rel.N())
		for i := 0; i < rel.N(); i++ {
			list[i] = Item{Obj: i, Score: w * rel.Rows[i][a]}
		}
		sort.Slice(list, func(x, y int) bool {
			if list[x].Score != list[y].Score {
				return list[x].Score > list[y].Score
			}
			return list[x].Obj < list[y].Obj
		})
		out[li] = list
	}
	return out, nil
}

// Result is one reported top-k object with its bound state at halting.
type Result struct {
	Obj   int
	Worst int64
	Best  int64
}

// objState tracks one seen object during a run.
type objState struct {
	obj    int
	seen   []bool
	scores []int64
	worst  int64
}

// bestAt returns the exact NRA upper bound given current bottom values.
func (o *objState) bestAt(bottoms []int64) int64 {
	b := o.worst
	for j, seen := range o.seen {
		if !seen {
			b += bottoms[j]
		}
	}
	return b
}

// Run executes the exact NRA algorithm: at each depth it recomputes every
// seen object's upper bound from the current bottom values and halts when
// at least k objects are seen and no outside object (seen or unseen) can
// beat the current top-k's k-th lower bound. Returns the top-k and the
// halting depth (1-based count of scanned depths).
func Run(lists [][]Item, k int) ([]Result, int, error) {
	if len(lists) == 0 {
		return nil, 0, errors.New("nra: no lists")
	}
	n := len(lists[0])
	for _, l := range lists {
		if len(l) != n {
			return nil, 0, errors.New("nra: ragged lists")
		}
	}
	if k <= 0 {
		return nil, 0, fmt.Errorf("nra: k must be positive, got %d", k)
	}
	if k > n {
		k = n
	}
	m := len(lists)
	states := map[int]*objState{}
	bottoms := make([]int64, m)

	finish := func(depth int) ([]Result, int, error) {
		ranked := rankByWorst(states)
		out := make([]Result, 0, k)
		for i := 0; i < k && i < len(ranked); i++ {
			st := ranked[i]
			out = append(out, Result{Obj: st.obj, Worst: st.worst, Best: st.bestAt(bottoms)})
		}
		return out, depth, nil
	}

	for d := 0; d < n; d++ {
		// Sorted access to each list at depth d.
		for j, l := range lists {
			it := l[d]
			bottoms[j] = it.Score
			st := states[it.Obj]
			if st == nil {
				st = &objState{obj: it.Obj, seen: make([]bool, m), scores: make([]int64, m)}
				states[it.Obj] = st
			}
			if !st.seen[j] {
				st.seen[j] = true
				st.scores[j] = it.Score
				st.worst += it.Score
			}
		}

		if len(states) < k+1 {
			// The encrypted engine needs k+1 items before it can run the
			// halting comparison; at full depth the loop exit below
			// handles the k == n edge.
			continue
		}
		ranked := rankByWorst(states)
		mk := ranked[k-1].worst
		halt := true
		for _, st := range ranked[k:] {
			if st.bestAt(bottoms) > mk {
				halt = false
				break
			}
		}
		// Unseen-object bound: an object never seen anywhere could still
		// reach the sum of the bottoms.
		var unseenBound int64
		for _, b := range bottoms {
			unseenBound += b
		}
		if len(states) < n && unseenBound > mk {
			halt = false
		}
		if halt {
			return finish(d + 1)
		}
	}
	// Full scan: every bound is exact now.
	return finish(n)
}

// rankByWorst orders the states by descending worst score (ties by object
// id for determinism, mirroring the deterministic tie behaviour tests
// rely on).
func rankByWorst(states map[int]*objState) []*objState {
	out := make([]*objState, 0, len(states))
	for _, st := range states {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].worst != out[j].worst {
			return out[i].worst > out[j].worst
		}
		return out[i].obj < out[j].obj
	})
	return out
}

// TopKExact computes the exact top-k by scanning the whole relation —
// ground truth for every correctness test.
func TopKExact(rel *dataset.Relation, attrs []int, weights []int64, k int) ([]Result, error) {
	if rel == nil || rel.N() == 0 {
		return nil, errors.New("nra: empty relation")
	}
	if k <= 0 {
		return nil, fmt.Errorf("nra: k must be positive, got %d", k)
	}
	if k > rel.N() {
		k = rel.N()
	}
	type pair struct {
		obj   int
		score int64
	}
	all := make([]pair, rel.N())
	for i := 0; i < rel.N(); i++ {
		all[i] = pair{obj: i, score: rel.Score(i, attrs, weights)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].obj < all[j].obj
	})
	out := make([]Result, k)
	for i := 0; i < k; i++ {
		out[i] = Result{Obj: all[i].obj, Worst: all[i].score, Best: all[i].score}
	}
	return out, nil
}

// KthScore returns the exact k-th largest aggregate score (for tie-aware
// set comparisons in tests).
func KthScore(rel *dataset.Relation, attrs []int, weights []int64, k int) (int64, error) {
	res, err := TopKExact(rel, attrs, weights, k)
	if err != nil {
		return 0, err
	}
	return res[len(res)-1].Worst, nil
}
