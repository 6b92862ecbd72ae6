package main

import (
	"fmt"

	"repro/sectopk"
)

// The oracle checks compare revealed answers with the plaintext ground
// truth. Tie order is not stable between runs of the secure protocols,
// so answers compare as score sequences, plus a check that every
// returned object really has the score it was returned with.

// checkTopK verifies a revealed top-k answer against the plaintext rows
// it was computed over.
func checkTopK(got []sectopk.Result, rows [][]int64, q sectopk.Query) error {
	want, err := oracleTopKScores(rows, q.Attrs, q.K)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("top-k answer has %d items, oracle has %d", len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for i, r := range got {
		if r.Score != want[i] {
			return fmt.Errorf("top-k rank %d has score %d, oracle says %d", i+1, r.Score, want[i])
		}
		if r.Object < 0 || r.Object >= len(rows) || seen[r.Object] {
			return fmt.Errorf("top-k rank %d names object %d (out of range or repeated)", i+1, r.Object)
		}
		seen[r.Object] = true
		var truth int64
		for _, a := range q.Attrs {
			truth += rows[r.Object][a]
		}
		if truth != r.Score {
			return fmt.Errorf("top-k rank %d: object %d scores %d, answer says %d", i+1, r.Object, truth, r.Score)
		}
	}
	return nil
}

// checkKNN verifies a revealed kNN answer against sectopk.PlainKNN.
func checkKNN(got []sectopk.KNNResult, rel *sectopk.Relation, q sectopk.KNNQuery) error {
	want, err := sectopk.PlainKNN(rel, q.Point, q.K)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("kNN answer has %d items, oracle has %d", len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for i, r := range got {
		if r.Distance != want[i].Distance {
			return fmt.Errorf("kNN rank %d has distance %d, oracle says %d", i+1, r.Distance, want[i].Distance)
		}
		if r.Object < 0 || r.Object >= len(rel.Rows) || seen[r.Object] {
			return fmt.Errorf("kNN rank %d names object %d (out of range or repeated)", i+1, r.Object)
		}
		seen[r.Object] = true
		var truth int64
		for j, v := range rel.Rows[r.Object] {
			d := v - q.Point[j]
			truth += d * d
		}
		if truth != r.Distance {
			return fmt.Errorf("kNN rank %d: object %d is at distance %d, answer says %d", i+1, r.Object, truth, r.Distance)
		}
	}
	return nil
}

// checkJoin verifies a revealed top-k join answer: the score sequence
// must equal sectopk.PlainTopKJoin's and every tuple must be a distinct
// member of the full plaintext join.
func checkJoin(got []sectopk.JoinResult, r1, r2 *sectopk.Relation, q sectopk.JoinQuery) error {
	want, err := sectopk.PlainTopKJoin(r1, r2, q)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("join answer has %d tuples, oracle has %d", len(got), len(want))
	}
	full := map[string]int{}
	for _, a := range r1.Rows {
		for _, b := range r2.Rows {
			if a[q.JoinAttr1] != b[q.JoinAttr2] {
				continue
			}
			t := sectopk.JoinResult{Score: a[q.ScoreAttr1] + b[q.ScoreAttr2]}
			for _, p := range q.Project1 {
				t.Attrs = append(t.Attrs, a[p])
			}
			for _, p := range q.Project2 {
				t.Attrs = append(t.Attrs, b[p])
			}
			full[fmt.Sprint(t)]++
		}
	}
	for i, t := range got {
		if t.Score != want[i].Score {
			return fmt.Errorf("join rank %d has score %d, oracle says %d", i+1, t.Score, want[i].Score)
		}
		key := fmt.Sprint(t)
		if full[key] == 0 {
			return fmt.Errorf("join rank %d: tuple %v is not in the plaintext join (or is repeated)", i+1, t)
		}
		full[key]--
	}
	return nil
}
