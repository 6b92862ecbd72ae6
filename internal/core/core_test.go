package core

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/nra"
	"repro/internal/protocols"
	"repro/internal/transport"
)

// testRig shares one expensive key setup across all core tests.
type testRig struct {
	scheme *Scheme
	server *cloud.Server
	client *cloud.Client
	s2led  *cloud.Ledger
	s1led  *cloud.Ledger
	stats  *transport.Stats
}

var (
	rigOnce sync.Once
	rig     *testRig
)

func getRig(t testing.TB) *testRig {
	t.Helper()
	rigOnce.Do(func() {
		params := Params{KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 20}
		scheme, err := NewScheme(params)
		if err != nil {
			t.Fatalf("NewScheme: %v", err)
		}
		s2led := cloud.NewLedger()
		server, err := cloud.NewServer(scheme.KeyMaterial(), s2led)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		stats := transport.NewStats()
		s1led := cloud.NewLedger()
		client, err := cloud.NewClient(transport.NewLocal(server, stats), scheme.PublicKey(), s1led)
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		rig = &testRig{scheme: scheme, server: server, client: client, s2led: s2led, s1led: s1led, stats: stats}
	})
	return rig
}

// figure3 is the paper's running example (see nra tests).
func figure3() *dataset.Relation {
	return &dataset.Relation{
		Name: "fig3",
		Rows: [][]int64{
			{10, 3, 2}, // X1
			{8, 8, 0},  // X2
			{5, 7, 6},  // X3
			{3, 2, 8},  // X4
			{1, 1, 1},  // X5
		},
	}
}

// fig3Depth is where the engine halts the Figure 3 top-2 query in Qry_F
// and Qry_E. Exact NRA (nra.Run) halts at depth 3, Figure 3c. The engine's
// stored best bounds refresh only at depths where their object appears
// (SecBest): X4, seen at depth 1 in R3 only, still carries 8+10+8 = 26 at
// depth 3, where its exact bound is 8+5+3 = 16 <= W_2 = 16. X4 reappears
// at depth 4, and there every bound is dominated.
const fig3Depth = 4

func encryptFig3(t *testing.T, r *testRig) *EncryptedRelation {
	t.Helper()
	er, err := r.scheme.EncryptRelation(figure3())
	if err != nil {
		t.Fatalf("EncryptRelation: %v", err)
	}
	return er
}

func runQuery(t *testing.T, r *testRig, er *EncryptedRelation, attrs []int, weights []int64, k int, opts Options) (*QueryResult, []RevealedResult) {
	t.Helper()
	tk, err := r.scheme.Token(er, attrs, weights, k)
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	engine, err := NewEngine(r.client, er)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := engine.SecQuery(context.Background(), tk, opts)
	if err != nil {
		t.Fatalf("SecQuery(%v): %v", opts.Mode, err)
	}
	rev, err := r.scheme.NewRevealer(er.N)
	if err != nil {
		t.Fatalf("NewRevealer: %v", err)
	}
	revealed, err := rev.RevealTopK(res.Items)
	if err != nil {
		t.Fatalf("RevealTopK: %v", err)
	}
	return res, revealed
}

func TestPaperExampleQryF(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	res, revealed := runQuery(t, r, er, []int{0, 1, 2}, nil, 2, Options{Mode: QryF})
	if !res.Halted {
		t.Fatal("query should have halted")
	}
	lists, err := nra.SortedLists(figure3(), []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, exact, err := nra.Run(lists, 2); err != nil || exact != 3 {
		t.Fatalf("nra.Run depth = %d (%v), want 3 (Figure 3c)", exact, err)
	}
	if res.Depth != fig3Depth {
		t.Fatalf("halting depth = %d, want %d (exact NRA's 3 plus X4's stale bound)", res.Depth, fig3Depth)
	}
	if len(revealed) != 2 {
		t.Fatalf("got %d results", len(revealed))
	}
	// Top-2: X3 (id 2, worst 18) then X2 (id 1, worst 16).
	if revealed[0].Obj != 2 || revealed[0].Worst != 18 {
		t.Fatalf("result[0] = %+v, want X3/18", revealed[0])
	}
	if revealed[1].Obj != 1 || revealed[1].Worst != 16 {
		t.Fatalf("result[1] = %+v, want X2/16", revealed[1])
	}
}

func TestPaperExampleQryE(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	res, revealed := runQuery(t, r, er, []int{0, 1, 2}, nil, 2, Options{Mode: QryE})
	if !res.Halted || res.Depth != fig3Depth {
		t.Fatalf("QryE: depth=%d halted=%v, want %d/true", res.Depth, res.Halted, fig3Depth)
	}
	if revealed[0].Obj != 2 || revealed[1].Obj != 1 {
		t.Fatalf("QryE top-2 = %+v", revealed)
	}
}

func TestPaperExampleQryBa(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	res, revealed := runQuery(t, r, er, []int{0, 1, 2}, nil, 2,
		Options{Mode: QryBa, BatchDepth: 2})
	if !res.Halted {
		t.Fatal("QryBa should halt")
	}
	if res.Depth != 4 {
		t.Fatalf("QryBa halting depth = %d, want 4 (first boundary whose check fires)", res.Depth)
	}
	if revealed[0].Obj != 2 || revealed[0].Worst != 18 || revealed[1].Obj != 1 || revealed[1].Worst != 16 {
		t.Fatalf("QryBa top-2 = %+v", revealed)
	}
}

// TestPaperExampleWithFullSort runs the Figure 3 query at k=4, where the
// halting check ranks 4 of |T| = 6 items at depth 2 on Knuth's six-input
// sorter (5 layers, 12 gates) rather than four selection passes (7
// layers, 14 gates) or Batcher's network (6 layers, 12 gates), and holds
// the answer to the plaintext top 4.
func TestPaperExampleWithFullSort(t *testing.T) {
	const k = 4
	if got := protocols.SelectTopLayers(6, k); got != 5 {
		t.Fatalf("ranking 4 of 6 items takes %d layers, want the six-input sorter's 5", got)
	}
	r := getRig(t)
	er := encryptFig3(t, r)
	attrs := []int{0, 1, 2}
	res, revealed := runQuery(t, r, er, attrs, nil, k, Options{Mode: QryF})
	want, err := nra.TopKExact(figure3(), attrs, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(revealed) != k {
		t.Fatalf("network run: halted=%v, %d results", res.Halted, len(revealed))
	}
	for i, w := range want {
		if revealed[i].Obj != w.Obj {
			t.Fatalf("network run: revealed %+v, want %+v", revealed, want)
		}
	}
}

func TestStrictHaltingMatchesGroundTruthAcrossModes(t *testing.T) {
	if testing.Short() {
		t.Skip("three-mode ground-truth sweep is slow; skipped in -short mode")
	}
	r := getRig(t)
	spec := dataset.Spec{Name: "corr", N: 24, M: 3, MaxScore: 400, Shape: dataset.ShapeGaussian, Correlation: 0.85}
	rel, err := dataset.Generate(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	er, err := r.scheme.EncryptRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	attrs := []int{0, 1, 2}
	const k = 3
	want, err := nra.TopKExact(rel, attrs, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	wantScores := make([]int64, k)
	for i, w := range want {
		wantScores[i] = w.Worst
	}
	for _, mode := range []Mode{QryF, QryE, QryBa} {
		opts := Options{Mode: mode}
		if mode == QryBa {
			opts.BatchDepth = 4
		}
		res, revealed := runQuery(t, r, er, attrs, nil, k, opts)
		if !res.Halted {
			t.Fatalf("%v: did not halt", mode)
		}
		if len(revealed) != k {
			t.Fatalf("%v: %d results", mode, len(revealed))
		}
		// Compare true-score multisets (ties make ids ambiguous).
		gotScores := make([]int64, k)
		for i, g := range revealed {
			gotScores[i] = rel.Score(g.Obj, attrs, nil)
		}
		sort.Slice(gotScores, func(i, j int) bool { return gotScores[i] > gotScores[j] })
		for i := range wantScores {
			if gotScores[i] != wantScores[i] {
				t.Fatalf("%v: scores %v, want %v", mode, gotScores, wantScores)
			}
		}
	}
}

func TestWeightedQuery(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	rel := figure3()
	attrs := []int{0, 1}
	weights := []int64{3, 1}
	want, err := nra.TopKExact(rel, attrs, weights, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, revealed := runQuery(t, r, er, attrs, weights, 1, Options{Mode: QryE})
	if revealed[0].Obj != want[0].Obj {
		t.Fatalf("weighted top-1 = %+v, want obj %d", revealed[0], want[0].Obj)
	}
	if revealed[0].Worst != want[0].Worst {
		t.Fatalf("weighted top-1 worst = %d, want %d", revealed[0].Worst, want[0].Worst)
	}
}

func TestSubsetOfAttributes(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	rel := figure3()
	attrs := []int{1, 2}
	want, err := nra.TopKExact(rel, attrs, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, revealed := runQuery(t, r, er, attrs, nil, 2, Options{Mode: QryE})
	gotObjs := []int{revealed[0].Obj, revealed[1].Obj}
	sort.Ints(gotObjs)
	wantObjs := []int{want[0].Obj, want[1].Obj}
	sort.Ints(wantObjs)
	if gotObjs[0] != wantObjs[0] || gotObjs[1] != wantObjs[1] {
		t.Fatalf("subset query top-2 = %v, want %v", gotObjs, wantObjs)
	}
}

func TestMaxDepthCap(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(r.client, er)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE, MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatal("capped scan should not report halted")
	}
	if res.Depth != 1 {
		t.Fatalf("depth = %d, want 1", res.Depth)
	}
}

func TestK1AndKn(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	rel := figure3()
	attrs := []int{0, 1, 2}
	_, revealed := runQuery(t, r, er, attrs, nil, 1, Options{Mode: QryE})
	want, _ := nra.TopKExact(rel, attrs, nil, 1)
	if revealed[0].Obj != want[0].Obj || revealed[0].Worst != want[0].Worst {
		t.Fatalf("k=1: %+v, want %+v", revealed[0], want[0])
	}
	// k = n forces a full scan; results must be the complete ranking.
	res, revealedAll := runQuery(t, r, er, attrs, nil, 5, Options{Mode: QryE})
	if len(revealedAll) != 5 {
		t.Fatalf("k=n returned %d items", len(revealedAll))
	}
	if !res.Halted {
		t.Fatal("full scan should report halted (exact)")
	}
	for i := 1; i < len(revealedAll); i++ {
		if revealedAll[i-1].Worst < revealedAll[i].Worst {
			t.Fatalf("k=n ranking not sorted: %+v", revealedAll)
		}
	}
}

func TestLeakageProfile(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	r.s1led.Reset()
	r.s2led.Reset()
	_, _ = runQuery(t, r, er, []int{0, 1, 2}, nil, 2, Options{Mode: QryE})

	// S1's view: query pattern + halting depth (+ uniqueness pattern in
	// Qry_E).
	s1 := r.s1led.Events()
	var hasQP, hasDepth, hasUP bool
	for _, ev := range s1 {
		switch ev.Method {
		case "Token":
			hasQP = true
		case "Query":
			hasDepth = true
		case cloud.MethodDedup:
			hasUP = true
		}
	}
	if !hasQP || !hasDepth || !hasUP {
		t.Fatalf("S1 leakage events missing: QP=%v depth=%v UP=%v (%v)", hasQP, hasDepth, hasUP, s1)
	}
	// S2's view: per-round equality patterns; no event should carry
	// anything beyond counts.
	if len(r.s2led.ByMethod(cloud.MethodEqBits)) == 0 {
		t.Fatal("S2 should have recorded equality-pattern events")
	}
	// Query pattern: S1 names each run's token by its digest, so a
	// repeated token shows as a repeated line and another k as another.
	engine, err := NewEngine(r.client, er)
	if err != nil {
		t.Fatal(err)
	}
	r.s1led.Reset()
	for _, k := range []int{2, 2, 3} {
		tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, k)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE, MaxDepth: 1}); err != nil {
			t.Fatal(err)
		}
	}
	qp := r.s1led.ByMethod("Token")
	if len(qp) != 3 || qp[0] != qp[1] || qp[1] == qp[2] ||
		!strings.HasPrefix(qp[0].Detail, "query pattern: token ") || !strings.HasSuffix(qp[0].Detail, " (m=3, k=2)") {
		t.Fatalf("query pattern of tokens k=2, k=2, k=3: %v", qp)
	}
}

func TestTokenValidation(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	if _, err := r.scheme.Token(er, nil, nil, 2); err == nil {
		t.Fatal("expected error for empty attribute set")
	}
	if _, err := r.scheme.Token(er, []int{9}, nil, 2); err == nil {
		t.Fatal("expected error for attribute out of range")
	}
	if _, err := r.scheme.Token(er, []int{0, 0}, nil, 2); err == nil {
		t.Fatal("expected error for duplicate attribute")
	}
	if _, err := r.scheme.Token(er, []int{0}, []int64{1, 2}, 2); err == nil {
		t.Fatal("expected error for weight mismatch")
	}
	if _, err := r.scheme.Token(er, []int{0}, []int64{-1}, 2); err == nil {
		t.Fatal("expected error for negative weight")
	}
	if _, err := r.scheme.Token(er, []int{0}, nil, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := r.scheme.Token(er, []int{0}, nil, 99); err == nil {
		t.Fatal("expected error for k>n")
	}
	if _, err := r.scheme.Token(nil, []int{0}, nil, 1); err == nil {
		t.Fatal("expected error for nil relation")
	}
}

func TestEngineValidation(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	if _, err := NewEngine(nil, er); err == nil {
		t.Fatal("expected error for nil client")
	}
	if _, err := NewEngine(r.client, nil); err == nil {
		t.Fatal("expected error for nil relation")
	}
	engine, _ := NewEngine(r.client, er)
	if _, err := engine.SecQuery(context.Background(), nil, Options{}); err == nil {
		t.Fatal("expected error for nil token")
	}
	if _, err := engine.SecQuery(context.Background(), &Token{K: 2, Lists: []int{99}}, Options{}); err == nil {
		t.Fatal("expected error for bad list position")
	}
	if _, err := engine.SecQuery(context.Background(), &Token{K: 0, Lists: []int{0}}, Options{}); err == nil {
		t.Fatal("expected error for k=0")
	}
	// Qry_Ba requires p >= k.
	tk, _ := r.scheme.Token(er, []int{0, 1}, nil, 4)
	if _, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryBa, BatchDepth: 2}); err == nil {
		t.Fatal("expected error for p < k")
	}
}

func TestSchemeValidation(t *testing.T) {
	if _, err := NewScheme(Params{KeyBits: 16, EHL: ehl.DefaultPlusParams(), MaxScoreBits: 8}); err == nil {
		t.Fatal("expected error for tiny key")
	}
	if _, err := NewScheme(Params{KeyBits: 256, EHL: ehl.Params{}, MaxScoreBits: 8}); err == nil {
		t.Fatal("expected error for invalid EHL params")
	}
	if _, err := NewScheme(Params{KeyBits: 256, EHL: ehl.DefaultPlusParams(), MaxScoreBits: 0}); err == nil {
		t.Fatal("expected error for zero score bits")
	}
	if _, err := NewSchemeFromKeys(DefaultParams(), nil); err == nil {
		t.Fatal("expected error for nil keys")
	}
}

func TestEncryptRelationValidation(t *testing.T) {
	r := getRig(t)
	if _, err := r.scheme.EncryptRelation(nil); err == nil {
		t.Fatal("expected error for nil relation")
	}
	big := &dataset.Relation{Name: "big", Rows: [][]int64{{1 << 30}}}
	if _, err := r.scheme.EncryptRelation(big); err == nil {
		t.Fatal("expected error for score exceeding MaxScoreBits")
	}
	ragged := &dataset.Relation{Name: "ragged", Rows: [][]int64{{1, 2}, {3}}}
	if _, err := r.scheme.EncryptRelation(ragged); err == nil {
		t.Fatal("expected error for ragged relation")
	}
}

func TestEncryptedRelationShapeAndSize(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	if er.N != 5 || er.M != 3 || len(er.Lists) != 3 {
		t.Fatalf("ER shape wrong: %d %d %d", er.N, er.M, len(er.Lists))
	}
	for _, l := range er.Lists {
		if len(l) != 5 {
			t.Fatalf("list length %d, want 5", len(l))
		}
	}
	sz := er.ByteSize(r.scheme.PublicKey())
	// 3 lists * 5 items * (3 EHL slots + 1 score) ciphertexts of 64 bytes
	// (256-bit N -> 512-bit N^2).
	want := int64(3 * 5 * 4 * r.scheme.PublicKey().ByteLen())
	if sz != want {
		t.Fatalf("ByteSize = %d, want %d", sz, want)
	}
}

func TestRevealerErrors(t *testing.T) {
	r := getRig(t)
	rev, err := r.scheme.NewRevealer(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rev.Object(nil); err == nil {
		t.Fatal("expected error for nil EHL")
	}
	// The list of an object past the revealer's n must not resolve.
	outside, err := r.scheme.EncryptEntry(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rev.Object(outside.EHL); err == nil {
		t.Fatal("expected error for unknown digest")
	}
	if _, err := r.scheme.NewRevealer(0); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestModeString(t *testing.T) {
	if QryF.String() != "Qry_F" || QryE.String() != "Qry_E" || QryBa.String() != "Qry_Ba" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should format")
	}
}
