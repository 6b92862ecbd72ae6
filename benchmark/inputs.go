package main

import (
	"math/rand"
	"sort"

	"repro/sectopk"
)

// Fixed sizing of every workload's inputs (see README.md "Workloads").
const (
	keyBits      = 256
	ehlDigests   = 3
	maxScoreBits = 20

	topkRows  = 120
	topkAttrs = 3
	knnRows   = 12
	joinRows  = 6
	// joinMatches is the number of (r1, r2) pairs that satisfy the
	// equi-join, fixed so SecFilter and the selection after it do the same
	// work at every seed.
	joinMatches = 5
)

// inputs is everything a workload feeds the system, generated from the
// seed alone: the program under test only ever sees these relations and
// the tokens issued over them.
type inputs struct {
	topk      *sectopk.Relation
	knn       *sectopk.Relation
	knnQuery  sectopk.KNNQuery
	join1     *sectopk.Relation
	join2     *sectopk.Relation
	joinQuery sectopk.JoinQuery
	// swapRNG draws the mutation schedule's row pairs.
	swapRNG *rand.Rand
}

// newInputs generates the inputs for one seed. Each relation draws from
// its own stream so changing one generator never shifts another's data.
func newInputs(seed int64) *inputs {
	in := &inputs{
		topk:    correlatedRelation(topkRows, topkAttrs, rand.New(rand.NewSource(seed))),
		swapRNG: rand.New(rand.NewSource(seed ^ 0x5eed5)),
	}
	krng := rand.New(rand.NewSource(seed ^ 0x6b6e6e))
	in.knn = &sectopk.Relation{Name: "knn"}
	for i := 0; i < knnRows; i++ {
		in.knn.Rows = append(in.knn.Rows, randomRow(krng, topkAttrs))
	}
	in.knnQuery = sectopk.KNNQuery{Point: in.knn.Rows[knnRows/2], K: 3}

	jrng := rand.New(rand.NewSource(seed ^ 0x6a6f696e))
	in.join1 = &sectopk.Relation{Name: "join1"}
	in.join2 = &sectopk.Relation{Name: "join2"}
	// r1's join values are distinct, so each r2 row matches at most one r1
	// row: the first joinMatches rows of r2 reuse an r1 value, the rest
	// carry values r1 never has.
	keys := jrng.Perm(joinRows)
	for i := 0; i < joinRows; i++ {
		r1 := randomRow(jrng, 3)
		r1[0] = int64(keys[i])
		in.join1.Rows = append(in.join1.Rows, r1)
	}
	partners := jrng.Perm(joinRows)
	for i := 0; i < joinRows; i++ {
		r2 := randomRow(jrng, 3)
		if i < joinMatches {
			r2[0] = int64(keys[partners[i]])
		} else {
			r2[0] = int64(1000 + i)
		}
		in.join2.Rows = append(in.join2.Rows, r2)
	}
	jrng.Shuffle(joinRows, func(a, b int) {
		in.join2.Rows[a], in.join2.Rows[b] = in.join2.Rows[b], in.join2.Rows[a]
	})
	in.joinQuery = sectopk.JoinQuery{
		JoinAttr1: 0, JoinAttr2: 0, ScoreAttr1: 1, ScoreAttr2: 1,
		Project1: []int{2}, Project2: []int{2}, K: 3,
	}
	return in
}

func randomRow(rng *rand.Rand, m int) []int64 {
	row := make([]int64, m)
	for j := range row {
		row[j] = rng.Int63n(1 << maxScoreBits)
	}
	return row
}

// correlatedRelation builds a perfectly rank-correlated relation: every
// attribute holds n distinct values and one seeded permutation decides
// which row is r-th in all of them. NRA then halts at depth k for every
// seed, so the cost of a query does not depend on the seed while the
// values and the answer's object ids do.
func correlatedRelation(n, m int, rng *rand.Rand) *sectopk.Relation {
	rowOfRank := rng.Perm(n)
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, m)
	}
	for j := 0; j < m; j++ {
		seen := make(map[int64]bool, n)
		vals := make([]int64, 0, n)
		for len(vals) < n {
			v := rng.Int63n(1 << maxScoreBits)
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] > vals[b] })
		for r, v := range vals {
			rows[rowOfRank[r]][j] = v
		}
	}
	return &sectopk.Relation{Name: "topk", Rows: rows}
}

// topkQuery is the workloads' top-k query over every attribute.
func topkQuery(k int) sectopk.Query {
	attrs := make([]int, topkAttrs)
	for j := range attrs {
		attrs[j] = j
	}
	return sectopk.Query{Attrs: attrs, K: k}
}

// cloneRows deep-copies a row set (the per-epoch oracle snapshots).
func cloneRows(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	for i, r := range rows {
		out[i] = append([]int64(nil), r...)
	}
	return out
}

// rankedRows returns row ids ordered best-first by total score.
func rankedRows(rows [][]int64) []int {
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return rowSum(rows[ids[a]]) > rowSum(rows[ids[b]]) })
	return ids
}

func rowSum(row []int64) int64 {
	var s int64
	for _, v := range row {
		s += v
	}
	return s
}

// nextSwap picks the two rows whose score vectors delta number i
// exchanges. Swapping whole vectors keeps the relation perfectly
// rank-correlated (the halting depth cannot move); every 4th delta swaps
// the current top two rows, so the right answer changes, and the others
// swap two rows from below the top four.
func (in *inputs) nextSwap(i int, rows [][]int64) (a, b int) {
	ranked := rankedRows(rows)
	if i%4 == 3 {
		return ranked[0], ranked[1]
	}
	x := 4 + in.swapRNG.Intn(len(rows)-4)
	y := 4 + in.swapRNG.Intn(len(rows)-5)
	if y >= x {
		y++
	}
	return ranked[x], ranked[y]
}
