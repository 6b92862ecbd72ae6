package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/transport"
)

// TestRoundBudget runs each mode, m = 3, on a rank-correlated relation
// of 8 rows, where every list holds the objects in one order, and holds
// every wire method to the rounds of the query's Schedule. The literal
// totals are the check on the schedule itself.
//
// Qry_F halts at depth k. At k = 2, the benchmark's query shape, depth 1
// takes no round of its own and depth 2 takes 6: the two depths'
// SecWorstBest, one round for each of the six-input top-2 selector's 4
// gate layers and the halting test. At k = 6 the first check runs at
// depth 3, which sends depths 1-3's SecWorstBest bits in one round, and
// at depths 3-5 Batcher's network, pruned to the top 6, ranks 6 of |T| =
// 9..15 items: 52 rounds.
//
// Qry_E sends one Dedup a depth from firstHaltDepth on and no EqBits. Its
// T holds one row an object, d rows at depth d, so it first checks, and
// halts, at depth k + 1: 7 rounds at k = 2 (Dedup 2, CompareHidden 3,
// Mult 1, Compare 1) and 13 at k = 6 (Dedup 5, CompareHidden 6, Mult 1,
// Compare 1). Qry_Ba at the default p = max(2k, 8) merges once, at the
// scan's last depth 8, and halts there: 8 rounds at k = 2, 9 at k = 6.
func TestRoundBudget(t *testing.T) {
	r := getRig(t)
	const m = 3
	rel := &dataset.Relation{Name: "ranked"}
	for i := 0; i < 8; i++ {
		base := int64(100 - 10*i)
		rel.Rows = append(rel.Rows, []int64{base, base + 1, base + 2})
	}
	er, err := r.scheme.EncryptRelation(rel)
	if err != nil {
		t.Fatalf("EncryptRelation: %v", err)
	}
	// Each k's subtest holds one row a mode.
	type row struct {
		mode                  Mode
		depth, rounds, dedups int
	}
	for _, kc := range []struct {
		k    int
		rows []row
	}{
		{2, []row{{QryF, 2, 6, 0}, {QryE, 3, 7, 2}, {QryBa, 8, 8, 1}}},
		{6, []row{{QryF, 6, 52, 0}, {QryE, 7, 13, 5}, {QryBa, 8, 9, 1}}},
	} {
		t.Run(fmt.Sprintf("k=%d", kc.k), func(t *testing.T) {
			for _, tc := range kc.rows {
				t.Run(tc.mode.String(), func(t *testing.T) {
					stats := transport.NewStats()
					client, err := cloud.NewClient(transport.NewLocal(r.server, stats), r.scheme.PublicKey(), nil)
					if err != nil {
						t.Fatal(err)
					}
					defer client.Close()
					tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, kc.k)
					if err != nil {
						t.Fatal(err)
					}
					engine, err := NewEngine(client, er)
					if err != nil {
						t.Fatal(err)
					}
					opts := Options{Mode: tc.mode}
					res, err := engine.SecQuery(context.Background(), tk, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Halted || res.Depth != tc.depth {
						t.Fatalf("depth=%d halted=%v, want %d/true", res.Depth, res.Halted, tc.depth)
					}
					// One object a depth: a merge at depth d leaves d+1 rows.
					unique := func(d int) int { return d + 1 }
					want := map[string]int64{}
					var total int64
					for _, q := range NewSchedule(er.N, m, kc.k, opts).Transcript(res.Depth, true, unique) {
						want[q.Method]++
						total++
					}
					for method, n := range want {
						if got := stats.Method(method).Calls; got != n {
							t.Errorf("%s: %d rounds, schedule %d", method, got, n)
						}
					}
					if got := stats.Rounds(); got != total || total != int64(tc.rounds) {
						t.Fatalf("query took %d rounds, schedule %d, want %d\n%s", got, total, tc.rounds, stats.Snapshot())
					}
					dedups, eqBits := stats.Method(cloud.MethodDedup).Calls, stats.Method(cloud.MethodEqBits).Calls
					if dedups != int64(tc.dedups) || eqBits > 0 && tc.mode != QryF {
						t.Fatalf("%d Dedup and %d EqBits rounds, want %d and none outside Qry_F", dedups, eqBits, tc.dedups)
					}
				})
			}
		})
	}
}

// TestRankingLayersScaleWithK confirms the other side of the complexity
// split at the protocols level: the oblivious top-k selection pays one
// hidden-comparison round per scheduled layer. Measured on a fixed item
// list so halting behaviour cannot confound the count (which it does
// inside a full query run).
func TestRankingLayersScaleWithK(t *testing.T) {
	r := getRig(t)
	items := newTestItems(t, r)
	layers := func(k int) int64 {
		stats := transport.NewStats()
		client, err := cloud.NewClient(transport.NewLocal(r.server, stats), r.scheme.PublicKey(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, err := protocols.EncSelectTop(context.Background(), client, items, 0, true, k, 16); err != nil {
			t.Fatal(err)
		}
		return stats.Method(cloud.MethodCompareHidden).Calls
	}
	// Five items: one pass over 5 positions takes ceil(log2 5) layers;
	// passes over 5, 4 and 3 positions overlap into 5, not 3+2+2.
	if l1 := layers(1); l1 != 3 {
		t.Fatalf("k=1 layers = %d, want 3", l1)
	}
	if l3 := layers(3); l3 != 5 {
		t.Fatalf("k=3 layers = %d, want 5", l3)
	}
}

// newTestItems builds a small list of protocol items for layer counting.
func newTestItems(t *testing.T, r *testRig) []protocols.Item {
	t.Helper()
	er := encryptFig3(t, r)
	items := make([]protocols.Item, 0, 5)
	for d := 0; d < 5; d++ {
		it := er.Lists[0][d]
		items = append(items, protocols.Item{
			EHL:    it.EHL,
			Scores: []*paillier.Ciphertext{it.Score},
		})
	}
	return items
}
