package core

import (
	"context"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/transport"
)

// TestRoundComplexityPerDepth pins down the interaction structure the
// batched sub-protocols promise: the per-depth pipeline (SecWorstBest +
// SecDedup + SecUpdate) costs a constant number of protocol rounds
// regardless of depth, and only the ranking/halting stage scales with k
// and |T|. This is the property that makes the scheme usable over a real
// WAN link (Section 11.2.5's conclusion).
func TestRoundComplexityPerDepth(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)

	pipelineRounds := func(maxDepth int) int64 {
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
		if _, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE, Halt: HaltPaper, MaxDepth: maxDepth}); err != nil {
			t.Fatal(err)
		}
		// Pipeline methods only (ranking uses Compare/CompareHidden and
		// its own Recover calls, which scale with k and |T|).
		return stats.Method(cloud.MethodEqBits).Calls + stats.Method(cloud.MethodDedup).Calls
	}
	// The Figure 3 query halts at depth 3, so measure strictly below it.
	r2 := pipelineRounds(2)
	r3 := pipelineRounds(3)
	// Steady state per depth: EqBits for SecWorstBest (1) + SecUpdate (1),
	// plus Dedup for the per-depth dedup (1) and SecUpdate's bipartite
	// dedup (1) = 4 rounds. Depth one skips SecUpdate's two rounds (T is
	// empty): 2 rounds.
	if perDepth := r3 - r2; perDepth != 4 {
		t.Fatalf("pipeline rounds per depth = %d, want 4 (r2=%d r3=%d)", perDepth, r2, r3)
	}
	if r2 != 2+4 {
		t.Fatalf("two-depth pipeline rounds = %d, want 6", r2)
	}
}

// depthBudget is the S1<->S2 round budget of one Qry_F depth: every step
// and the wire methods it may call, one round each. A change that fuses
// two steps edits this table; a change that re-serializes independent
// gates, or splits a batch, fails TestRoundBudget.
var depthBudget = []struct {
	step    string
	methods []string
	// times says how often the step runs at a depth that starts with
	// tracked items in T and ends with ranked = tracked + m of them.
	times func(tracked, ranked, k int) int
}{
	{"SecWorstBest", []string{cloud.MethodEqBits, cloud.MethodRecover}, func(int, int, int) int { return 1 }},
	{"SecDedup", []string{cloud.MethodDedup}, func(int, int, int) int { return 1 }},
	{"SecUpdate", []string{cloud.MethodEqBits, cloud.MethodRecover, cloud.MethodDedup}, func(tracked, _, _ int) int {
		if tracked == 0 {
			return 0 // nothing to merge with
		}
		return 1
	}},
	{"EncSelectTop layer", []string{cloud.MethodCompareHidden, cloud.MethodRecover}, func(_, ranked, k int) int {
		// Passes 0..k rank k+1 items, scheduled together.
		return protocols.SelectTopLayers(ranked, k+1)
	}},
	{"halting test", []string{cloud.MethodCompare}, func(int, int, int) int { return 1 }},
}

// TestRoundBudget runs the benchmark's query shape — Qry_F, m=3, k=2 on a
// rank-correlated relation, which halts at depth 2 — and holds every wire
// method to depthBudget: 10 rounds at depth 1, 19 at depth 2.
func TestRoundBudget(t *testing.T) {
	r := getRig(t)
	const m, k = 3, 2
	rel := &dataset.Relation{Name: "ranked"}
	for i := 0; i < 8; i++ {
		base := int64(100 - 10*i)
		rel.Rows = append(rel.Rows, []int64{base, base + 1, base + 2})
	}
	er, err := r.scheme.EncryptRelation(rel)
	if err != nil {
		t.Fatalf("EncryptRelation: %v", err)
	}
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
	if !res.Halted || res.Depth != 2 {
		t.Fatalf("depth=%d halted=%v, want 2/true", res.Depth, res.Halted)
	}

	want := map[string]int64{}
	var total int64
	for d := 0; d < res.Depth; d++ {
		// Qry_F keeps duplicates as sentinel rows: |T| grows by m a depth.
		tracked, ranked := d*m, (d+1)*m
		for _, b := range depthBudget {
			n := int64(b.times(tracked, ranked, k))
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
	if got := stats.Rounds(); got != total || total != 29 {
		t.Fatalf("query took %d rounds, budget %d, want 29\n%s", got, total, stats.Snapshot())
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
