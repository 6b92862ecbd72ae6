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

// TestRoundComplexityPerDepth pins down the interaction structure the
// batched sub-protocols promise: Qry_E's per-depth pipeline — one
// score-summing Dedup merge at every depth from firstHaltDepth on — costs
// a constant number of protocol rounds regardless of depth, and only the
// ranking/halting stage scales with k and |T|. This is the property that
// makes the scheme usable over a real WAN link (Section 11.2.5's
// conclusion).
func TestRoundComplexityPerDepth(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)

	// pipelineRounds returns the Dedup and EqBits rounds of a Qry_E run
	// capped at maxDepth; ranking uses Compare and CompareHidden and
	// batchBest Mult, which scale with k and |T|.
	pipelineRounds := func(maxDepth int) (dedups, eqBits int64) {
		stats := transport.NewStats()
		client, err := cloud.NewClient(transport.NewLocal(r.server, stats), r.scheme.PublicKey(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := NewEngine(client, er)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE, MaxDepth: maxDepth}); err != nil {
			t.Fatal(err)
		}
		return stats.Method(cloud.MethodDedup).Calls, stats.Method(cloud.MethodEqBits).Calls
	}
	// The Figure 3 query halts at depth fig3ExactDepth = 3 under Qry_E,
	// after that depth's merge, so a cap of 3 counts depth 3 in full.
	r2, eq2 := pipelineRounds(2)
	r3, eq3 := pipelineRounds(3)
	// At k = 2 over three lists firstHaltDepth is 2: depth one's rows
	// wait for depth two's merge, and every depth from two on merges in
	// one Dedup round. No round tests equality on the gadget.
	if perDepth := r3 - r2; perDepth != 1 {
		t.Fatalf("pipeline rounds per depth = %d, want 1 (r2=%d r3=%d)", perDepth, r2, r3)
	}
	if r2 != 1 {
		t.Fatalf("two-depth pipeline rounds = %d, want 1", r2)
	}
	if eq2 != 0 || eq3 != 0 {
		t.Fatalf("Qry_E sent %d and %d EqBits rounds at caps 2 and 3, want none", eq2, eq3)
	}
}

// depthShape is what a Qry_F depth's round budget depends on: its 1-based
// depth, the query's firstHaltDepth, the ranked items in T when it ends,
// and k.
type depthShape struct{ depth, haltFrom, ranked, k int }

// depthBudget is the S1<->S2 round budget of one Qry_F depth: every step
// and the wire methods it may call, one round each. A change that fuses
// two steps edits this table; a change that re-serializes independent
// gates, or splits a batch, fails TestRoundBudget.
var depthBudget = []struct {
	step    string
	methods []string
	// times says how often the step runs at a depth of the given shape.
	times func(s depthShape) int
}{
	// Qry_F marks its duplicates, within the depth and across depths,
	// from SecWorstBest's own bits, and carries each object's worst score
	// forward on them: no dedup or update round at all. The depths up to
	// the first halting depth send their SecWorstBest bits in one round,
	// counted at that depth.
	{"SecWorstBest", []string{cloud.MethodEqBits}, func(s depthShape) int {
		if s.depth < s.haltFrom {
			return 0
		}
		return 1
	}},
	{"EncSelectTop layer", []string{cloud.MethodCompareHidden}, func(s depthShape) int {
		if s.depth < s.haltFrom || s.ranked < s.k+1 {
			return 0 // no halt possible yet, or too few items to test halting on
		}
		// The top k of ranked items on the shallowest of the selection
		// passes, Batcher's network and the fixed programs.
		return protocols.SelectTopLayers(s.ranked, s.k)
	}},
	{"halting test", []string{cloud.MethodCompare}, func(s depthShape) int {
		if s.depth < s.haltFrom || s.ranked < s.k+1 {
			return 0
		}
		return 1
	}},
}

// TestRoundBudget runs Qry_F, m=3 on a rank-correlated relation, which
// halts at depth k, and holds every wire method to depthBudget. At k=2,
// the benchmark's query shape, depth 1 takes no round of its own and
// depth 2 takes 6: the two depths' SecWorstBest, one round for each of
// the six-input top-2 selector's 4 gate layers and the halting test (7
// on the selection passes' 5 layers, 8 while SecUpdate took a round a
// depth). At k=6 the halting check first runs at depth 3, which sends
// depths 1-3's SecWorstBest bits in one round, and at depths 3-5
// Batcher's network, pruned to the top 6, ranks 6 of |T| = 9..15 items
// in 10 fewer layers than the selection passes: the query takes 52
// rounds (57 with SecUpdate's) where the passes alone took 62. Pruning
// takes gates, not layers, off those rankings.
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
	for _, tc := range []struct{ k, rounds int }{{2, 6}, {6, 52}} {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			k := tc.k
			stats := transport.NewStats()
			client, err := cloud.NewClient(transport.NewLocal(r.server, stats), r.scheme.PublicKey(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, k)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := NewEngine(client, er)
			if err != nil {
				t.Fatal(err)
			}
			res, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryF})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted || res.Depth != k {
				t.Fatalf("depth=%d halted=%v, want %d/true", res.Depth, res.Halted, k)
			}

			want := map[string]int64{}
			var total int64
			for d := 0; d < res.Depth; d++ {
				// Qry_F keeps duplicates as marked rows: |T| grows by m a depth.
				s := depthShape{depth: d + 1, haltFrom: firstHaltDepth(m, k), ranked: (d + 1) * m, k: k}
				for _, b := range depthBudget {
					n := int64(b.times(s))
					for _, method := range b.methods {
						want[method] += n
					}
					total += n * int64(len(b.methods))
				}
			}
			for method, n := range want {
				if got := stats.Method(method).Calls; got != n {
					t.Errorf("%s: %d rounds, budget %d", method, got, n)
				}
			}
			if got := stats.Rounds(); got != total || total != int64(tc.rounds) {
				t.Fatalf("query took %d rounds, budget %d, want %d\n%s", got, total, tc.rounds, stats.Snapshot())
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
