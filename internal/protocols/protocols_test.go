package protocols

import (
	"context"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/prf"
	"repro/internal/transport"
)

type testEnv struct {
	keys   *cloud.KeyMaterial
	server *cloud.Server
	client *cloud.Client
	hasher *ehl.Hasher
	stats  *transport.Stats
}

var (
	envOnce sync.Once
	shared  *testEnv
)

func env(t testing.TB) *testEnv {
	t.Helper()
	envOnce.Do(func() {
		keys, err := cloud.NewKeyMaterial(256)
		if err != nil {
			t.Fatalf("NewKeyMaterial: %v", err)
		}
		srv, err := cloud.NewServer(keys, cloud.NewLedger())
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		stats := transport.NewStats()
		client, err := cloud.NewClient(transport.NewLocal(srv, stats), &keys.Paillier.PublicKey, cloud.NewLedger())
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		master := prf.Key(make([]byte, prf.KeySize))
		for i := range master {
			master[i] = byte(i * 3)
		}
		hasher, err := ehl.NewHasher(master, ehl.Params{Kind: ehl.KindPlus, S: 3}, &keys.Paillier.PublicKey)
		if err != nil {
			t.Fatalf("NewHasher: %v", err)
		}
		shared = &testEnv{keys: keys, server: srv, client: client, hasher: hasher, stats: stats}
	})
	return shared
}

func (e *testEnv) enc(t testing.TB, v int64) *paillier.Ciphertext {
	t.Helper()
	ct, err := e.keys.Paillier.PublicKey.EncryptInt64(v)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (e *testEnv) dec(t testing.TB, ct *paillier.Ciphertext) int64 {
	t.Helper()
	m, err := e.keys.Paillier.DecryptSigned(ct)
	if err != nil {
		t.Fatal(err)
	}
	return m.Int64()
}

func (e *testEnv) list(t testing.TB, obj uint64) *ehl.List {
	t.Helper()
	l, err := e.hasher.Build(obj)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (e *testEnv) item(t testing.TB, obj uint64, scores ...int64) Item {
	t.Helper()
	it := Item{EHL: e.list(t, obj)}
	for _, s := range scores {
		it.Scores = append(it.Scores, e.enc(t, s))
	}
	return it
}

// revealObj decrypts the first EHL digest so tests can recognize which
// object an item carries (the test plays the data owner).
func (e *testEnv) revealObj(t testing.TB, l *ehl.List, candidates []uint64) (uint64, bool) {
	t.Helper()
	d, err := e.keys.Paillier.Decrypt(l.Cts[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range candidates {
		want, err := e.hasher.Digests(obj)
		if err != nil {
			t.Fatal(err)
		}
		if want[0].Cmp(d) == 0 {
			return obj, true
		}
	}
	return 0, false
}

func TestSecMult(t *testing.T) {
	e := env(t)
	f := func(x, y int32) bool {
		a := e.enc(t, int64(x))
		b := e.enc(t, int64(y))
		prods, err := SecMult(context.Background(), e.client, []*paillier.Ciphertext{a}, []*paillier.Ciphertext{b})
		if err != nil {
			t.Logf("SecMult: %v", err)
			return false
		}
		return e.dec(t, prods[0]) == int64(x)*int64(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := SecMult(context.Background(), e.client, make([]*paillier.Ciphertext, 1), nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if out, err := SecMult(context.Background(), e.client, nil, nil); err != nil || out != nil {
		t.Fatal("empty SecMult should be a no-op")
	}
}

func TestEncCompare(t *testing.T) {
	e := env(t)
	cases := []struct {
		a, b int64
		want bool // a <= b
	}{
		{1, 2, true}, {2, 1, false}, {5, 5, true}, {0, 0, true},
		{-1, 0, true}, {0, -1, false}, {-1, -1, true},
		{100, 1 << 20, true}, {1 << 20, 100, false},
	}
	for _, c := range cases {
		// Repeat to cover both random sign flips.
		for rep := 0; rep < 4; rep++ {
			got, err := EncCompare(context.Background(), e.client, e.enc(t, c.a), e.enc(t, c.b), 24)
			if err != nil {
				t.Fatalf("EncCompare(%d,%d): %v", c.a, c.b, err)
			}
			if got != c.want {
				t.Fatalf("EncCompare(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
}

func TestEncCompareBatchAndValidation(t *testing.T) {
	e := env(t)
	as := []*paillier.Ciphertext{e.enc(t, 3), e.enc(t, 9)}
	bs := []*paillier.Ciphertext{e.enc(t, 7), e.enc(t, 2)}
	got, err := EncCompareBatch(context.Background(), e.client, as, bs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0] || got[1] {
		t.Fatalf("batch = %v, want [true false]", got)
	}
	if _, err := EncCompareBatch(context.Background(), e.client, as, bs[:1], 16); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := EncCompare(context.Background(), e.client, as[0], bs[0], 0); err == nil {
		t.Fatal("expected error for non-positive magnitude bits")
	}
	if _, err := EncCompare(context.Background(), e.client, as[0], bs[0], 1000); err == nil {
		t.Fatal("expected error for magnitude exceeding modulus")
	}
	if out, err := EncCompareBatch(context.Background(), e.client, nil, nil, 16); err != nil || out != nil {
		t.Fatal("empty batch should be a no-op")
	}
}

func TestEncCompareHidden(t *testing.T) {
	e := env(t)
	as := []*paillier.Ciphertext{e.enc(t, 3), e.enc(t, 9), e.enc(t, 4)}
	bs := []*paillier.Ciphertext{e.enc(t, 7), e.enc(t, 2), e.enc(t, 4)}
	want := []int64{1, 0, 1} // a <= b
	for rep := 0; rep < 4; rep++ {
		bits, err := EncCompareHiddenBatch(context.Background(), e.client, as, bs, 16)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range bits {
			m, err := e.keys.DJ.Decrypt(b)
			if err != nil {
				t.Fatal(err)
			}
			if m.Int64() != want[i] {
				t.Fatalf("rep %d: hidden bit %d = %v, want %d", rep, i, m, want[i])
			}
		}
	}
}

func TestSecWorstAll(t *testing.T) {
	e := env(t)
	// Depth snapshot from the paper's Figure 3a, depth 1:
	// R1 -> X1:10, R2 -> X2:8, R3 -> X4:8. No co-occurrences, so each
	// worst equals the item's own score.
	items := []DepthItem{
		{EHL: e.list(t, 1), Score: e.enc(t, 10)},
		{EHL: e.list(t, 2), Score: e.enc(t, 8)},
		{EHL: e.list(t, 4), Score: e.enc(t, 8)},
	}
	worst, err := SecWorstAll(context.Background(), e.client, items)
	if err != nil {
		t.Fatalf("SecWorstAll: %v", err)
	}
	for i, want := range []int64{10, 8, 8} {
		if got := e.dec(t, worst[i]); got != want {
			t.Errorf("worst[%d] = %d, want %d", i, got, want)
		}
	}

	// Same object appearing in two lists at this depth: scores add up.
	items2 := []DepthItem{
		{EHL: e.list(t, 7), Score: e.enc(t, 5)},
		{EHL: e.list(t, 7), Score: e.enc(t, 6)},
		{EHL: e.list(t, 9), Score: e.enc(t, 3)},
	}
	worst2, err := SecWorstAll(context.Background(), e.client, items2)
	if err != nil {
		t.Fatalf("SecWorstAll: %v", err)
	}
	for i, want := range []int64{11, 11, 3} {
		if got := e.dec(t, worst2[i]); got != want {
			t.Errorf("co-occurrence worst[%d] = %d, want %d", i, got, want)
		}
	}

	// Single-attribute queries degenerate to the item's own score.
	w1, err := SecWorstAll(context.Background(), e.client, items2[:1])
	if err != nil {
		t.Fatal(err)
	}
	if e.dec(t, w1[0]) != 5 {
		t.Fatal("m=1 worst should be own score")
	}
	if _, err := SecWorstAll(context.Background(), e.client, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestSecBestAll(t *testing.T) {
	e := env(t)
	// Figure 3b state (depth 2) with three lists:
	// R1: X1:10, X2:8   R2: X2:8, X3:7   R3: X4:8, X3:6
	hist := []ListHistory{
		{EHLs: []*ehl.List{e.list(t, 1), e.list(t, 2)}, Scores: []*paillier.Ciphertext{e.enc(t, 10), e.enc(t, 8)}},
		{EHLs: []*ehl.List{e.list(t, 2), e.list(t, 3)}, Scores: []*paillier.Ciphertext{e.enc(t, 8), e.enc(t, 7)}},
		{EHLs: []*ehl.List{e.list(t, 4), e.list(t, 3)}, Scores: []*paillier.Ciphertext{e.enc(t, 8), e.enc(t, 6)}},
	}
	items := []DepthItem{
		{EHL: e.list(t, 2), Score: e.enc(t, 8)}, // current depth item of R1
		{EHL: e.list(t, 3), Score: e.enc(t, 7)}, // of R2
		{EHL: e.list(t, 3), Score: e.enc(t, 6)}, // of R3
	}
	best, err := SecBestAll(context.Background(), e.client, items, hist)
	if err != nil {
		t.Fatalf("SecBestAll: %v", err)
	}
	// X2 (item of R1): own 8 + seen in R2 (8) + bottom of R3 (6) = 22.
	// X3 (item of R2): own 7 + bottom of R1 (8) + seen in R3 (6) = 21.
	// X3 (item of R3): own 6 + bottom of R1 (8) + seen in R2 (7) = 21.
	for i, want := range []int64{22, 21, 21} {
		if got := e.dec(t, best[i]); got != want {
			t.Errorf("best[%d] = %d, want %d (paper Fig. 3b)", i, got, want)
		}
	}
	// The fused call returns the same bounds beside the worst scores: X3
	// sits at this depth in both R2 and R3, so its two items carry 7 + 6.
	worst, fusedBest, err := SecWorstBestAll(context.Background(), e.client, items, hist)
	if err != nil {
		t.Fatalf("SecWorstBestAll: %v", err)
	}
	for i, want := range []struct{ w, b int64 }{{8, 22}, {13, 21}, {13, 21}} {
		if w, b := e.dec(t, worst[i]), e.dec(t, fusedBest[i]); w != want.w || b != want.b {
			t.Errorf("fused (W, B)[%d] = (%d, %d), want (%d, %d)", i, w, b, want.w, want.b)
		}
	}
	if _, err := SecBestAll(context.Background(), e.client, items, hist[:1]); err == nil {
		t.Fatal("expected history length mismatch error")
	}
	b1, err := SecBestAll(context.Background(), e.client, items[:1], hist[:1])
	if err != nil {
		t.Fatal(err)
	}
	if e.dec(t, b1[0]) != 8 {
		t.Fatal("m=1 best should be own score")
	}
}

func TestSecDedupReplaceFullProtocol(t *testing.T) {
	e := env(t)
	items := []Item{
		e.item(t, 1, 100, 200),
		e.item(t, 1, 100, 200),
		e.item(t, 2, 300, 400),
	}
	out, err := SecDedup(context.Background(), e.client, items, cloud.DedupReplace, AllPairs(3), nil)
	if err != nil {
		t.Fatalf("SecDedup: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("replace mode should keep 3 rows, got %d", len(out))
	}
	var real1, real2, sentinels int
	for _, it := range out {
		obj, ok := e.revealObj(t, it.EHL, []uint64{1, 2})
		w := e.dec(t, it.Scores[0])
		switch {
		case ok && obj == 1 && w == 100:
			real1++
		case ok && obj == 2 && w == 300:
			real2++
		case !ok && w == -1:
			sentinels++
		default:
			t.Fatalf("unexpected row: obj=%d ok=%v w=%d", obj, ok, w)
		}
	}
	if real1 != 1 || real2 != 1 || sentinels != 1 {
		t.Fatalf("real1=%d real2=%d sentinels=%d", real1, real2, sentinels)
	}
}

func TestSecDedupEliminate(t *testing.T) {
	e := env(t)
	items := []Item{
		e.item(t, 5, 10, 20),
		e.item(t, 6, 30, 40),
		e.item(t, 5, 10, 20),
		e.item(t, 5, 10, 20),
	}
	out, err := SecDedup(context.Background(), e.client, items, cloud.DedupEliminate, AllPairs(4), nil)
	if err != nil {
		t.Fatalf("SecDedup: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("eliminate should keep 2 rows, got %d", len(out))
	}
	seen := map[uint64]int64{}
	for _, it := range out {
		obj, ok := e.revealObj(t, it.EHL, []uint64{5, 6})
		if !ok {
			t.Fatal("eliminate mode returned an unknown object")
		}
		seen[obj] = e.dec(t, it.Scores[0])
	}
	if seen[5] != 10 || seen[6] != 30 {
		t.Fatalf("scores wrong after eliminate: %v", seen)
	}
}

func TestSecDedupMergeSumsWorst(t *testing.T) {
	e := env(t)
	items := []Item{
		e.item(t, 8, 10, 99),
		e.item(t, 8, 20, 98),
		e.item(t, 9, 7, 96),
	}
	out, err := SecDedup(context.Background(), e.client, items, cloud.DedupMerge, AllPairs(3), []int{ColWorst})
	if err != nil {
		t.Fatalf("SecDedup merge: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("merge should keep 2 rows, got %d", len(out))
	}
	for _, it := range out {
		obj, ok := e.revealObj(t, it.EHL, []uint64{8, 9})
		if !ok {
			t.Fatal("merge returned unknown object")
		}
		w := e.dec(t, it.Scores[0])
		if obj == 8 && w != 30 {
			t.Fatalf("merged worst = %d, want 30", w)
		}
		if obj == 9 && w != 7 {
			t.Fatalf("unique worst = %d, want 7", w)
		}
	}
}

func TestSecDedupValidation(t *testing.T) {
	e := env(t)
	items := []Item{e.item(t, 1, 5, 5)}
	if _, err := SecDedup(context.Background(), e.client, items, cloud.DedupReplace, PairSet{Pairs: [][2]int{{0, 3}}}, nil); err == nil {
		t.Fatal("expected out-of-range pair error")
	}
	if out, err := SecDedup(context.Background(), e.client, nil, cloud.DedupReplace, PairSet{}, nil); err != nil || out != nil {
		t.Fatal("empty dedup should be a no-op")
	}
	bad := []Item{{EHL: nil}}
	if _, err := SecDedup(context.Background(), e.client, bad, cloud.DedupReplace, PairSet{}, nil); err == nil {
		t.Fatal("expected invalid item error")
	}
}

func TestSecUpdateMergesMatchedObjects(t *testing.T) {
	e := env(t)
	// Existing: object 1 with W=10, B=26; object 2 with W=8, B=26.
	T := []Item{
		e.item(t, 1, 10, 26),
		e.item(t, 2, 8, 26),
	}
	// Depth items: object 2 reappears (local worst 8, fresh best 22);
	// object 3 is new (worst 7, best 21).
	gamma := []Item{
		e.item(t, 2, 8, 22),
		e.item(t, 3, 7, 21),
	}
	out, err := SecUpdate(context.Background(), e.client, T, gamma, cloud.DedupEliminate)
	if err != nil {
		t.Fatalf("SecUpdate: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("expected 3 distinct objects, got %d", len(out))
	}
	got := map[uint64][2]int64{}
	for _, it := range out {
		obj, ok := e.revealObj(t, it.EHL, []uint64{1, 2, 3})
		if !ok {
			t.Fatal("unknown object after SecUpdate")
		}
		got[obj] = [2]int64{e.dec(t, it.Scores[0]), e.dec(t, it.Scores[1])}
	}
	if got[1] != [2]int64{10, 26} {
		t.Errorf("object 1 = %v, want {10 26} (untouched)", got[1])
	}
	if got[2] != [2]int64{16, 22} {
		t.Errorf("object 2 = %v, want {16 22} (W accumulated, B refreshed)", got[2])
	}
	if got[3] != [2]int64{7, 21} {
		t.Errorf("object 3 = %v, want {7 21} (appended)", got[3])
	}
}

func TestSecUpdateReplaceModeKeepsSentinels(t *testing.T) {
	e := env(t)
	T := []Item{e.item(t, 1, 10, 20)}
	gamma := []Item{e.item(t, 1, 5, 18)}
	out, err := SecUpdate(context.Background(), e.client, T, gamma, cloud.DedupReplace)
	if err != nil {
		t.Fatalf("SecUpdate: %v", err)
	}
	// Replace mode keeps the duplicate slot as a sentinel: 2 rows total.
	if len(out) != 2 {
		t.Fatalf("expected 2 rows in replace mode, got %d", len(out))
	}
	var merged, sentinels int
	for _, it := range out {
		if _, ok := e.revealObj(t, it.EHL, []uint64{1}); ok {
			if w := e.dec(t, it.Scores[0]); w != 15 {
				t.Fatalf("merged W = %d, want 15", w)
			}
			merged++
		} else if e.dec(t, it.Scores[0]) == -1 {
			sentinels++
		}
	}
	if merged != 1 || sentinels != 1 {
		t.Fatalf("merged=%d sentinels=%d", merged, sentinels)
	}
}

func TestSecUpdateEmptyCases(t *testing.T) {
	e := env(t)
	T := []Item{e.item(t, 1, 1, 2)}
	out, err := SecUpdate(context.Background(), e.client, T, nil, cloud.DedupEliminate)
	if err != nil || len(out) != 1 {
		t.Fatalf("empty gamma should return T: %v len=%d", err, len(out))
	}
	gamma := []Item{e.item(t, 2, 3, 4)}
	out, err = SecUpdate(context.Background(), e.client, nil, gamma, cloud.DedupEliminate)
	if err != nil || len(out) != 1 {
		t.Fatalf("empty T should return gamma: %v len=%d", err, len(out))
	}
}

func sortCheck(t *testing.T, e *testEnv, vals []int64, desc bool) {
	t.Helper()
	items := make([]Item, len(vals))
	for i, v := range vals {
		items[i] = e.item(t, uint64(100+i), v, int64(i))
	}
	out, err := EncSort(context.Background(), e.client, items, 0, desc, 16)
	if err != nil {
		t.Fatalf("EncSort: %v", err)
	}
	if len(out) != len(vals) {
		t.Fatalf("sort changed length %d -> %d", len(vals), len(out))
	}
	got := make([]int64, len(out))
	for i, it := range out {
		got[i] = e.dec(t, it.Scores[0])
	}
	want := append([]int64(nil), vals...)
	sort.Slice(want, func(i, j int) bool {
		if desc {
			return want[i] > want[j]
		}
		return want[i] < want[j]
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("desc=%v: sorted = %v, want %v", desc, got, want)
		}
	}
	// Payload columns must travel with their key: re-derive the original
	// index column and check the pairing survived.
	for _, it := range out {
		key := e.dec(t, it.Scores[0])
		idx := e.dec(t, it.Scores[1])
		if vals[idx] != key {
			t.Fatalf("payload decoupled from key: key=%d idx=%d", key, idx)
		}
	}
}

func TestEncSortAscending(t *testing.T) {
	sortCheck(t, env(t), []int64{5, 3, 9, 1}, false)
}

func TestEncSortDescending(t *testing.T) {
	sortCheck(t, env(t), []int64{5, 3, 9, 1, 7}, true) // non-power-of-two
}

func TestEncSortWithDuplicatesAndNegatives(t *testing.T) {
	sortCheck(t, env(t), []int64{4, -1, 4, 0, -1, 8}, true)
}

func TestEncSortEdgeCases(t *testing.T) {
	e := env(t)
	if out, err := EncSort(context.Background(), e.client, nil, 0, false, 8); err != nil || len(out) != 0 {
		t.Fatal("empty sort should be a no-op")
	}
	one := []Item{e.item(t, 1, 5)}
	out, err := EncSort(context.Background(), e.client, one, 0, false, 8)
	if err != nil || len(out) != 1 {
		t.Fatalf("singleton sort: %v", err)
	}
	if _, err := EncSort(context.Background(), e.client, []Item{e.item(t, 1, 5), e.item(t, 2, 6)}, 3, false, 8); err == nil {
		t.Fatal("expected column range error")
	}
}

// checkSchedule holds a schedule of n positions to the rules its layers
// keep whatever the program: every gate is ordered and in range, no
// position appears twice in a layer, and each position's gates run in the
// order the program adds them.
func checkSchedule(t *testing.T, name string, n int, s *schedule) {
	t.Helper()
	inLayers, inProgram := map[int][]gate{}, map[int][]gate{}
	for l, layer := range s.layers {
		seen := map[int]bool{}
		for _, g := range layer {
			if g.i < 0 || g.i >= g.j || g.j >= n {
				t.Fatalf("%s: layer %d gate %v out of order or range", name, l, g)
			}
			if seen[g.i] || seen[g.j] {
				t.Fatalf("%s: layer %d reuses a position: %v", name, l, layer)
			}
			seen[g.i], seen[g.j] = true, true
			inLayers[g.i] = append(inLayers[g.i], g)
			inLayers[g.j] = append(inLayers[g.j], g)
		}
	}
	for _, g := range s.program {
		inProgram[g.i] = append(inProgram[g.i], g)
		inProgram[g.j] = append(inProgram[g.j], g)
	}
	if !reflect.DeepEqual(inLayers, inProgram) {
		t.Fatalf("%s: the layers run a position's gates out of program order:\nlayers  %v\nprogram %v", name, inLayers, inProgram)
	}
}

// runPlain runs a schedule's layers on plaintext keys, smallest first.
func runPlain(s *schedule, vals []int) {
	for _, layer := range s.layers {
		for _, g := range layer {
			if vals[g.i] > vals[g.j] {
				vals[g.i], vals[g.j] = vals[g.j], vals[g.i]
			}
		}
	}
}

// TestSelectSchedule checks the selection schedule without any crypto for
// n <= 17 and k <= n+1: the schedule rules, Σ_p (n-1-p) gates, the sorted
// top k at 0..k-1 after a plaintext run, and never more layers than the
// ceil(log2(n-p)) per pass of running the passes one after another. It
// pins the layer counts of EncSelectTop's callers.
func TestSelectSchedule(t *testing.T) {
	perPass := func(n, k int) (gates, layers int) {
		for p := 0; p < k && p < n; p++ {
			gates += n - 1 - p
			layers += bits.Len(uint(n - p - 1))
		}
		return gates, layers
	}
	for n := 1; n <= 17; n++ {
		for k := 0; k <= n+1; k++ {
			name := fmt.Sprintf("n=%d k=%d", n, k)
			s := selectSchedule(n, k)
			checkSchedule(t, name, n, s)
			gates, layers := perPass(n, k)
			if len(s.program) != gates {
				t.Fatalf("%s: %d gates, want %d", name, len(s.program), gates)
			}
			if len(s.layers) > layers {
				t.Fatalf("%s: %d layers, more than the %d of one pass after another", name, len(s.layers), layers)
			}
			for trial := 0; trial < 4; trial++ {
				vals, err := prf.RandomPerm(n)
				if err != nil {
					t.Fatal(err)
				}
				runPlain(s, vals)
				for p := 0; p < k && p < n; p++ {
					if vals[p] != p {
						t.Fatalf("%s: position %d holds rank %d: %v", name, p, vals[p], vals)
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		caller        string
		n, k          int
		before, after int
	}{
		{"checkHalt", 6, 3, 8, 6},
		{"shard.Merge", 4, 2, 4, 3},
		{"knn.Query", 12, 3, 12, 8},
		{"join.SecJoin", 5, 3, 7, 5},
		{"a depth-20 query", 60, 3, 18, 12},
	} {
		if _, layers := perPass(tc.n, tc.k); layers != tc.before {
			t.Errorf("%s (n=%d k=%d): %d layers one pass after another, want %d", tc.caller, tc.n, tc.k, layers, tc.before)
		}
		if got := SelectTopLayers(tc.n, tc.k); got != tc.after {
			t.Errorf("%s (n=%d k=%d): %d layers, want %d", tc.caller, tc.n, tc.k, got, tc.after)
		}
	}
}

// TestEncSelectTop decrypts the selection's output: the first min(k, n)
// positions must equal the plaintext sort, the rest must be the leftover
// multiset, payload columns must travel with their key, and every
// scheduled layer must cost exactly two rounds.
func TestEncSelectTop(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		vals []int64
		desc bool
		k    int
	}{
		{"descending", []int64{5, 12, 3, 9, 1, 7}, true, 3},
		{"ascending", []int64{5, 12, 3, 9}, false, 2},
		{"duplicate keys", []int64{4, 9, 4, 9, 9, 0, 4}, true, 4},
		{"duplicate keys ascending", []int64{4, -1, 4, 0, -1}, false, 3},
		{"k equals n", []int64{2, 8, 5}, true, 3},
		{"k beyond n", []int64{2, 8, 5, 8, 1}, true, 10},
		{"not a power of two", []int64{6, 1, 9, 3, 7, 2, 8}, false, 3},
		{"single item", []int64{42}, true, 1},
		{"k zero", []int64{3, 1, 2}, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.vals)
			items := make([]Item, n)
			for i, v := range tc.vals {
				items[i] = e.item(t, uint64(100+i), v, int64(i))
			}
			before := e.stats.Rounds()
			out, err := EncSelectTop(ctx, e.client, items, 0, tc.desc, tc.k, 16)
			if err != nil {
				t.Fatalf("EncSelectTop: %v", err)
			}
			k := min(tc.k, n)
			layers := int64(len(selectSchedule(n, tc.k).layers))
			if rounds := e.stats.Rounds() - before; rounds != 2*layers {
				t.Errorf("%d rounds for %d layers, want %d", rounds, layers, 2*layers)
			}
			if len(out) != n {
				t.Fatalf("selection changed length %d -> %d", n, len(out))
			}
			want := append([]int64(nil), tc.vals...)
			sort.Slice(want, func(i, j int) bool {
				if tc.desc {
					return want[i] > want[j]
				}
				return want[i] < want[j]
			})
			got := make([]int64, n)
			for i, it := range out {
				got[i] = e.dec(t, it.Scores[0])
				if idx := e.dec(t, it.Scores[1]); tc.vals[idx] != got[i] {
					t.Fatalf("payload decoupled from key: key=%d idx=%d", got[i], idx)
				}
			}
			for i := 0; i < k; i++ {
				if got[i] != want[i] {
					t.Fatalf("prefix = %v, want %v", got[:k], want[:k])
				}
			}
			slices.Sort(got[k:])
			slices.Sort(want[k:])
			if !slices.Equal(got[k:], want[k:]) {
				t.Fatalf("leftovers = %v, want the multiset %v", got[k:], want[k:])
			}
		})
	}
	items := []Item{e.item(t, 1, 5), e.item(t, 2, 6)}
	if _, err := EncSelectTop(ctx, e.client, items, 0, true, -1, 16); err == nil {
		t.Fatal("expected negative k error")
	}
	if _, err := EncSelectTop(ctx, e.client, items, 1, true, 1, 16); err == nil {
		t.Fatal("expected column range error")
	}
	if out, err := EncSelectTop(ctx, e.client, nil, 0, true, 1, 16); err != nil || out != nil {
		t.Fatal("empty selection should be a no-op")
	}
}

// TestSecFilterOracle runs SecFilter against the plaintext filter: with
// none, some or all of the tuples joining and 0-3 attributes each, exactly
// the tuples with a nonzero score survive, each with its own score and
// attributes, in some order.
func TestSecFilterOracle(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	for name, joins := range map[string][]bool{
		"none": {false, false, false},
		"some": {true, false, true, false, false},
		"all":  {true, true, true, true},
	} {
		for nAttrs := 0; nAttrs <= 3; nAttrs++ {
			var tuples []JoinTuple
			want := map[int64][]int64{}
			for i, joined := range joins {
				score := int64(0)
				tp := JoinTuple{}
				var attrs []int64
				for a := 0; a < nAttrs; a++ {
					attrs = append(attrs, int64(100*i+a-50))
					tp.Attrs = append(tp.Attrs, e.enc(t, attrs[a]))
				}
				if joined {
					score = int64(15 + 12*i)
					want[score] = attrs
				}
				tp.Score = e.enc(t, score)
				tuples = append(tuples, tp)
			}
			out, err := SecFilter(ctx, e.client, tuples)
			if err != nil {
				t.Fatalf("%s/%d attrs: SecFilter: %v", name, nAttrs, err)
			}
			if len(out) != len(want) {
				t.Fatalf("%s/%d attrs: %d tuples survived, want %d", name, nAttrs, len(out), len(want))
			}
			for _, tp := range out {
				attrs, ok := want[e.dec(t, tp.Score)]
				if !ok || len(tp.Attrs) != len(attrs) {
					t.Fatalf("%s/%d attrs: unexpected survivor with score %d", name, nAttrs, e.dec(t, tp.Score))
				}
				for a, ct := range tp.Attrs {
					if got := e.dec(t, ct); got != attrs[a] {
						t.Errorf("%s/%d attrs: score %d attribute %d = %d, want %d", name, nAttrs, e.dec(t, tp.Score), a, got, attrs[a])
					}
				}
				delete(want, e.dec(t, tp.Score))
			}
		}
	}
	if out, err := SecFilter(ctx, e.client, nil); err != nil || out != nil {
		t.Fatal("empty filter should be a no-op")
	}
	if _, err := SecFilter(ctx, e.client, []JoinTuple{{Score: nil}}); err == nil {
		t.Fatal("expected malformed tuple error")
	}
	if _, err := SecFilter(ctx, e.client, []JoinTuple{{Score: e.enc(t, 1)}, {Score: e.enc(t, 1), Attrs: []*paillier.Ciphertext{e.enc(t, 2)}}}); err == nil {
		t.Fatal("expected ragged tuple error")
	}
}

// TestBatcherLayersProduceValidNetwork checks EncSort's schedule without
// any crypto: the schedule rules at every n up to 32, Batcher's depth
// log2(n)·(log2(n)+1)/2 at the powers of two, and, by the 0-1 principle,
// a sort of every n in 1..17 with no pad position: every 0-1 input ends
// with its ones at the top.
func TestBatcherLayersProduceValidNetwork(t *testing.T) {
	for n := 1; n <= 32; n++ {
		checkSchedule(t, fmt.Sprintf("n=%d", n), n, sortSchedule(n))
	}
	for n, depth := range map[int]int{2: 1, 4: 3, 8: 6, 16: 10, 32: 15} {
		if got := len(sortSchedule(n).layers); got != depth {
			t.Errorf("n=%d: %d layers, want %d", n, got, depth)
		}
	}
	for n, want := range map[int][2]int{6: {12, 6}, 9: {28, 9}} {
		s := sortSchedule(n)
		if got := [2]int{len(s.program), len(s.layers)}; got != want {
			t.Errorf("n=%d: %d gates in %d layers, want %d in %d", n, got[0], got[1], want[0], want[1])
		}
	}
	for n := 1; n <= 17; n++ {
		s := sortSchedule(n)
		for in := uint32(0); in < 1<<n; in++ {
			out := in
			for _, layer := range s.layers {
				for _, g := range layer {
					if out>>g.i&1 == 1 && out>>g.j&1 == 0 {
						out ^= 1<<g.i | 1<<g.j
					}
				}
			}
			ones := bits.OnesCount32(in)
			if want := uint32(1)<<n - uint32(1)<<(n-ones); out != want {
				t.Fatalf("n=%d: input %0*b sorted to %0*b", n, n, in, n, out)
			}
		}
	}
}

func TestItemCloneAndValidate(t *testing.T) {
	e := env(t)
	it := e.item(t, 1, 5, 6)
	c := it.Clone()
	c.Scores[0].C.Add(c.Scores[0].C, c.Scores[0].C)
	if e.dec(t, it.Scores[0]) != 5 {
		t.Fatal("Clone aliases original")
	}
	if err := it.Validate(2); err != nil {
		t.Fatalf("valid item rejected: %v", err)
	}
	if err := it.Validate(3); err == nil {
		t.Fatal("wrong column count accepted")
	}
	if err := (Item{}).Validate(0); err == nil {
		t.Fatal("missing EHL accepted")
	}
	if err := (Item{EHL: it.EHL, Scores: []*paillier.Ciphertext{nil}}).Validate(1); err == nil {
		t.Fatal("nil score accepted")
	}
}
