package protocols

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	mrand "math/rand"
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

// TestSecMult checks SecMult and SecSquare on int32 operands, blinded in
// full and at their declared 32 bits.
func TestSecMult(t *testing.T) {
	e := env(t)
	for _, bits := range []int{0, 32} {
		f := func(x, y int32) bool {
			a := e.enc(t, int64(x))
			b := e.enc(t, int64(y))
			prods, err := SecMult(context.Background(), e.client, []*paillier.Ciphertext{a}, []*paillier.Ciphertext{b}, bits)
			if err != nil {
				t.Logf("SecMult: %v", err)
				return false
			}
			squares, err := SecSquare(context.Background(), e.client, []*paillier.Ciphertext{a}, bits)
			if err != nil {
				t.Logf("SecSquare: %v", err)
				return false
			}
			return e.dec(t, prods[0]) == int64(x)*int64(y) && e.dec(t, squares[0]) == int64(x)*int64(x)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
			t.Fatalf("at %d bits: %v", bits, err)
		}
	}
	if _, err := SecMult(context.Background(), e.client, make([]*paillier.Ciphertext, 1), nil, 0); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if out, err := SecMult(context.Background(), e.client, nil, nil, 0); err != nil || out != nil {
		t.Fatal("empty SecMult should be a no-op")
	}
	if out, err := SecSquare(context.Background(), e.client, nil, 0); err != nil || out != nil {
		t.Fatal("empty SecSquare should be a no-op")
	}
	if _, err := SecSquare(context.Background(), e.client, make([]*paillier.Ciphertext, 1), 0); err == nil {
		t.Fatal("SecSquare of a nil operand succeeded")
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

// TestMaskedDiffHidesDivisor runs S2's trial-division attack on the one
// masked comparison at a small magBits: over many comparisons with
// |d| = |2a - 2b - 1| of at least 2^9, the true |d| divides S2's
// decryption only about 1/|d| of the time, where it divided every one
// before the additive term r' (maskedDiff with r' = 0 fails this test),
// and the decryption's sign still names a <= b through S1's flip.
func TestMaskedDiffHidesDivisor(t *testing.T) {
	e := env(t)
	const magBits, trials = 12, 200
	rng := mrand.New(mrand.NewSource(1))
	divides := 0
	for i := 0; i < trials; i++ {
		a, b := rng.Int63n(1<<(magBits-1)), rng.Int63n(1<<(magBits-1))
		d := 2*a - 2*b - 1
		if d > -512 && d < 512 {
			i--
			continue
		}
		masked, flip, err := maskedDiff(e.client.Enc(), e.enc(t, a), e.enc(t, b), magBits)
		if err != nil {
			t.Fatal(err)
		}
		v, err := e.keys.Paillier.DecryptSigned(masked)
		if err != nil {
			t.Fatal(err)
		}
		if (v.Sign() < 0) != flip != (a <= b) {
			t.Fatalf("a=%d b=%d: decryption %v with flip %v names the wrong order", a, b, v, flip)
		}
		if new(big.Int).Rem(v, big.NewInt(d)).Sign() == 0 {
			divides++
		}
	}
	if divides > trials/10 {
		t.Fatalf("|d| divides S2's decryption in %d of %d comparisons: the masked difference still carries it", divides, trials)
	}
}

// TestEncCompareHidden runs the gate's hidden comparison over key pairs
// of both orders, equal keys and negative keys, ascending and descending,
// all in one layer and many times over: position i must end with the item
// that sorts first, payload included, and the sign S2 reads must take
// both values, since S1's flip makes it independent of the order.
func TestEncCompareHidden(t *testing.T) {
	e := env(t)
	tap := &gadgetTap{inner: transport.NewLocal(e.server, nil)}
	client, err := cloud.NewClient(tap, &e.keys.Paillier.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	pairs := [][2]int64{{3, 7}, {9, 2}, {4, 4}, {-5, -5}, {-6, 1}, {1, -6}}
	for _, desc := range []bool{false, true} {
		for rep := 0; rep < 4; rep++ {
			var work []Item
			var layer []gate
			for p, kv := range pairs {
				work = append(work, e.item(t, uint64(2*p), kv[0], 0), e.item(t, uint64(2*p+1), kv[1], 1))
				layer = append(layer, gate{2 * p, 2*p + 1})
			}
			if err := runGateLayer(context.Background(), client, work, layer, 0, desc, 18); err != nil {
				t.Fatal(err)
			}
			for p, kv := range pairs {
				first := 0 // index of the pair's key that sorts first; ties keep it
				if !desc && kv[1] < kv[0] || desc && kv[1] > kv[0] {
					first = 1
				}
				got0, got1 := work[2*p], work[2*p+1]
				if e.dec(t, got0.Scores[0]) != kv[first] || e.dec(t, got0.Scores[1]) != int64(first) ||
					e.dec(t, got1.Scores[0]) != kv[1-first] || e.dec(t, got1.Scores[1]) != int64(1-first) {
					t.Fatalf("desc=%v rep %d: gate over %v did not put item %d first", desc, rep, kv, first)
				}
			}
		}
	}
	seen := map[int64]int{}
	for _, r := range tap.replies {
		for _, b := range r.Bits {
			m, err := e.keys.Paillier.Decrypt(&paillier.Ciphertext{C: b})
			if err != nil {
				t.Fatal(err)
			}
			seen[m.Int64()]++
		}
	}
	if len(seen) != 2 || seen[0]+seen[1] != 8*len(pairs) {
		t.Fatalf("S2 read signs %v over %d gates, want both values", seen, 8*len(pairs))
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
	worst, fusedBest, _, err := SecWorstBestAll(context.Background(), e.client, items, hist)
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

// TestSecDedupReplaceFullProtocol runs Qry_F's dedup — one grouped
// gadget round — on a pair, a three-way duplicate (all rows one object)
// and distinct rows: every object keeps exactly one live row, at one of
// its own positions, the row count and every live row's scores are
// unchanged, and each replaced row is a sentinel, no object and scores
// -1. It takes one EqBits round and no Dedup round.
func TestSecDedupReplaceFullProtocol(t *testing.T) {
	e := env(t)
	client, tap := e.tappedClient(t)
	for _, tc := range []struct {
		name string
		objs []uint64
	}{
		{"a pair", []uint64{1, 1, 2}},
		{"three copies", []uint64{4, 4, 4}},
		{"no duplicates", []uint64{5, 6, 7, 8}},
		{"two pairs", []uint64{9, 3, 3, 9}},
	} {
		items := make([]Item, len(tc.objs))
		for i, obj := range tc.objs {
			items[i] = e.item(t, obj, int64(100*obj), int64(200*obj))
		}
		before := len(tap.requests)
		out, err := SecDedup(context.Background(), client, items, cloud.DedupReplace, AllPairs(len(items)), nil)
		if err != nil {
			t.Fatalf("%s: SecDedup: %v", tc.name, err)
		}
		if len(out) != len(items) {
			t.Fatalf("%s: replace mode kept %d of %d rows", tc.name, len(out), len(items))
		}
		live := map[uint64]int{}
		for i, it := range out {
			obj, ok := e.revealObj(t, it.EHL, tc.objs)
			w, b := e.dec(t, it.Scores[0]), e.dec(t, it.Scores[1])
			switch {
			case ok && obj == tc.objs[i] && w == int64(100*obj) && b == int64(200*obj):
				live[obj]++
			case !ok && w == -1 && b == -1:
			default:
				t.Fatalf("%s: row %d: obj=%d ok=%v scores %d, %d", tc.name, i, obj, ok, w, b)
			}
		}
		for _, obj := range tc.objs {
			if live[obj] != 1 {
				t.Errorf("%s: object %d has %d live rows, want 1", tc.name, obj, live[obj])
			}
		}
		if n := len(tap.requests) - before; n != 1 || tap.calls[cloud.MethodDedup] != 0 {
			t.Errorf("%s: %d gadget rounds and %d Dedup rounds, want 1 and 0", tc.name, n, tap.calls[cloud.MethodDedup])
		}
		if req := tap.requests[len(tap.requests)-1]; req.Group != len(items)-1 {
			t.Errorf("%s: groups of %d tests over %d rows", tc.name, req.Group, len(items))
		}
	}
}

// TestSecDedupReplaceShufflesGroups reads S2's side of Qry_F's dedup:
// the zero test of a duplicate must land anywhere in its group, not where
// S1 listed it. Over [A, A, B] the later copy of A in S1's order tests
// the earlier one first by index, so without the in-group shuffle the
// zero always sits at position 0 and S2 learns which earlier row matched.
// Over 40 calls the zero must show up at both positions of the two-test
// groups; with the shuffle that fails with probability 2^-39.
func TestSecDedupReplaceShufflesGroups(t *testing.T) {
	e := env(t)
	client, tap := e.tappedClient(t)
	items := []Item{e.item(t, 1, 10, 20), e.item(t, 1, 10, 20), e.item(t, 2, 30, 40)}
	var at [2]int
	for call := 0; call < 40; call++ {
		before := len(tap.requests)
		if _, err := SecDedup(context.Background(), client, items, cloud.DedupReplace, AllPairs(len(items)), nil); err != nil {
			t.Fatal(err)
		}
		if len(tap.requests) != before+1 {
			t.Fatalf("call %d sent %d gadget rounds, want 1", call, len(tap.requests)-before)
		}
		req := tap.requests[before]
		if req.Group != 2 || len(req.Cts) != 2*len(items) {
			t.Fatalf("call %d: %d tests in groups of %d, want 6 in groups of 2", call, len(req.Cts), req.Group)
		}
		zeros := 0
		for x, c := range req.Cts {
			if m, err := e.keys.Paillier.Decrypt(&paillier.Ciphertext{C: c}); err != nil {
				t.Fatal(err)
			} else if m.Sign() == 0 {
				at[x%req.Group]++
				zeros++
			}
		}
		if zeros != 1 {
			t.Fatalf("call %d: S2 read %d zero tests, want the one of A's later copy", call, zeros)
		}
	}
	if at[0] == 0 || at[1] == 0 {
		t.Fatalf("the zero test sat at group positions %v over 40 calls: S1 does not shuffle within a group", at)
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

// TestSecUpdateReplaceModeKeepsSentinels: in Replace mode SecUpdate is
// one gadget round. T's copy of a matched object keeps its place with
// W_t + W_g and the fresher B_g, the matched new item becomes a sentinel
// in its own place, and everything else is untouched, so |T| grows by
// |gamma|.
func TestSecUpdateReplaceModeKeepsSentinels(t *testing.T) {
	e := env(t)
	client, tap := e.tappedClient(t)
	T := []Item{e.item(t, 1, 10, 20), e.item(t, 2, 7, 19)}
	gamma := []Item{e.item(t, 3, 4, 17), e.item(t, 1, 5, 18)}
	out, err := SecUpdate(context.Background(), client, T, gamma, cloud.DedupReplace)
	if err != nil {
		t.Fatalf("SecUpdate: %v", err)
	}
	if len(tap.calls) != 1 || tap.calls[cloud.MethodEqBits] != 1 {
		t.Fatalf("rounds by method %v, want one EqBits", tap.calls)
	}
	// Per pair bit: W_g for T's copy, B_g - B_t, and sentinel - g for
	// every slot of g: 2*cols + the id width.
	if req, w := tap.requests[0], 2*2+gamma[0].EHL.Width(); req.Width != w || req.Group != 1 {
		t.Errorf("pair bits of width %d in groups of %d, want %d and 1", req.Width, req.Group, w)
	}
	want := []struct {
		obj  uint64 // 0: a sentinel
		w, b int64
	}{{1, 15, 18}, {2, 7, 19}, {3, 4, 17}, {0, -1, -1}}
	if len(out) != len(want) {
		t.Fatalf("%d rows, want %d", len(out), len(want))
	}
	for i, it := range out {
		obj, ok := e.revealObj(t, it.EHL, []uint64{1, 2, 3})
		if !ok {
			obj = 0
		}
		if w, b := e.dec(t, it.Scores[0]), e.dec(t, it.Scores[1]); obj != want[i].obj || w != want[i].w || b != want[i].b {
			t.Errorf("row %d = object %d (%d, %d), want %d (%d, %d)", i, obj, w, b, want[i].obj, want[i].w, want[i].b)
		}
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

// sortCheck asks the one ranker for all n of n items, which at these
// sizes runs a sorting network, and checks a full sort.
func sortCheck(t *testing.T, e *testEnv, vals []int64, desc bool) {
	t.Helper()
	n := len(vals)
	if s := rankSchedule(n, n); reflect.DeepEqual(s.program, selectSchedule(n, n).program) {
		t.Fatalf("n=%d: the ranker runs the selection passes, not the network", n)
	}
	items := make([]Item, n)
	for i, v := range vals {
		items[i] = e.item(t, uint64(100+i), v, int64(i))
	}
	out, err := EncSelectTop(context.Background(), e.client, items, 0, desc, n, 16)
	if err != nil {
		t.Fatalf("EncSelectTop: %v", err)
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
	if out, err := EncSelectTop(context.Background(), e.client, nil, 0, false, 0, 8); err != nil || len(out) != 0 {
		t.Fatal("empty sort should be a no-op")
	}
	one := []Item{e.item(t, 1, 5)}
	out, err := EncSelectTop(context.Background(), e.client, one, 0, false, 1, 8)
	if err != nil || len(out) != 1 {
		t.Fatalf("singleton sort: %v", err)
	}
	if _, err := EncSelectTop(context.Background(), e.client, []Item{e.item(t, 1, 5), e.item(t, 2, 6)}, 3, false, 2, 8); err == nil {
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
		caller               string
		n, k                 int
		before, after, gates int
	}{
		{"checkHalt", 6, 2, 6, 4, 9},
		{"shard.Merge", 4, 2, 4, 3, 5},
		{"knn.Query", 12, 3, 12, 8, 30},
		{"join.SecJoin", 5, 3, 7, 5, 8},
		{"a depth-20 query", 60, 2, 12, 9, 117},
	} {
		if _, layers := perPass(tc.n, tc.k); layers != tc.before {
			t.Errorf("%s (n=%d k=%d): %d layers one pass after another, want %d", tc.caller, tc.n, tc.k, layers, tc.before)
		}
		s := rankSchedule(tc.n, tc.k)
		if got := SelectTopLayers(tc.n, tc.k); got != tc.after || len(s.program) != tc.gates {
			t.Errorf("%s (n=%d k=%d): %d layers of %d gates, want %d of %d", tc.caller, tc.n, tc.k, got, len(s.program), tc.after, tc.gates)
		}
	}
}

// zeroOneSelects runs s over the 0-1 input in, bit x the key at position
// x, and reports whether positions 0..k-1 end with the input's k smallest
// keys in order: its zeros, then ones. By the 0-1 principle a program
// that does so for every input of n bits orders the first k of any n
// keys.
func zeroOneSelects(s *schedule, n, k int, in uint32) bool {
	out := in
	for _, layer := range s.layers {
		for _, g := range layer {
			if out>>g.i&1 == 1 && out>>g.j&1 == 0 {
				out ^= 1<<g.i | 1<<g.j
			}
		}
	}
	zeros := n - bits.OnesCount32(in)
	for p := 0; p < k && p < n; p++ {
		if want := p >= zeros; out>>p&1 == 1 != want {
			return false
		}
	}
	return true
}

// rankCandidate names the candidate rankSchedule(n, k) took.
func rankCandidate(n, k int) string {
	s := rankSchedule(n, k)
	if reflect.DeepEqual(s.program, selectSchedule(n, k).program) {
		return "passes"
	}
	if reflect.DeepEqual(s.program, pruneSchedule(n, k, sortSchedule(n).program).program) {
		return "network"
	}
	for x, f := range fixedPrograms {
		if f.n == n && k <= f.k && reflect.DeepEqual(s.program, pruneSchedule(n, k, f.program).program) {
			return fmt.Sprintf("fixed %d", x)
		}
	}
	return "none"
}

// TestRankSchedule checks the one ranker without any crypto. Every fixed
// program orders its first k positions on all 2^n 0-1 inputs, and so does
// each pruning of it to fewer. For n <= 64 and k <= n+1 the ranker never
// has more gates or more layers than the selection passes, and leaves the
// sorted top k at 0..k-1: on every 0-1 input up to n = 12, on random
// permutations above. It pins which candidate each caller's shape runs.
// Run with -v for the counts of the passes and the ranker at the
// callers' shapes and at the Qry_F depth sums.
func TestRankSchedule(t *testing.T) {
	for x, f := range fixedPrograms {
		for k := 1; k <= f.k; k++ {
			s := pruneSchedule(f.n, k, f.program)
			checkSchedule(t, fmt.Sprintf("fixed program %d at k=%d", x, k), f.n, s)
			for in := uint32(0); in < 1<<f.n; in++ {
				if !zeroOneSelects(s, f.n, k, in) {
					t.Fatalf("fixed program %d pruned to k=%d: input %0*b does not put its %d smallest first", x, k, f.n, in, k)
				}
			}
		}
	}
	for n := 1; n <= 64; n++ {
		for k := 0; k <= n+1; k++ {
			name := fmt.Sprintf("n=%d k=%d", n, k)
			s, sel := rankSchedule(n, k), selectSchedule(n, k)
			checkSchedule(t, name, n, s)
			if len(s.program) > len(sel.program) || len(s.layers) > len(sel.layers) {
				t.Fatalf("%s: %d gates in %d layers, the passes take %d in %d",
					name, len(s.program), len(s.layers), len(sel.program), len(sel.layers))
			}
			if n <= 12 {
				for in := uint32(0); in < 1<<n; in++ {
					if !zeroOneSelects(s, n, k, in) {
						t.Fatalf("%s: input %0*b does not put its %d smallest first", name, n, in, k)
					}
				}
				continue
			}
			for trial := 0; trial < 2; trial++ {
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
		caller string
		n, k   int
		want   string
	}{
		{"checkHalt at depth 1", 3, 2, "passes"},
		{"checkHalt at depth 2", 6, 2, "fixed 0"},
		{"shard.Merge", 4, 2, "passes"},
		{"join.SecJoin", 5, 3, "network"},
		{"knn.Query", 12, 3, "passes"},
		{"the selecttop seam", 8, 3, "network"},
		{"Figure 3 at k=4", 6, 4, "fixed 1"},
	} {
		if got := rankCandidate(tc.n, tc.k); got != tc.want {
			t.Errorf("%s (n=%d k=%d): the ranker runs %s, want %s", tc.caller, tc.n, tc.k, got, tc.want)
		}
	}

	counts := func(s *schedule) string { return fmt.Sprintf("%d/%d", len(s.layers), len(s.program)) }
	t.Log("layers/gates: selection passes -> ranker (candidate)")
	for _, tc := range []struct {
		caller string
		n, k   int
	}{
		{"checkHalt", 6, 2},
		{"shard.Merge", 4, 2},
		{"knn.Query", 12, 3},
		{"join.SecJoin", 5, 3},
		{"a depth-20 query", 60, 2},
		{"the selecttop seam", 8, 3},
		{"Figure 3 at k=3", 6, 3},
		{"Figure 3 at k=4", 6, 4},
		{"Figure 3 at k=5", 6, 5},
		{"checkHalt at m=2", 4, 2},
	} {
		t.Logf("  %-20s (%2d, %d): %7s -> %-6s (%s)", tc.caller, tc.n, tc.k,
			counts(selectSchedule(tc.n, tc.k)), counts(rankSchedule(tc.n, tc.k)), rankCandidate(tc.n, tc.k))
	}
	t.Log("checkHalt layers summed over depths 1-10 at |T| = 3d (Qry_F, m=3), selection passes -> ranker:")
	for _, k := range []int{2, 4, 6, 8} {
		var sel, ranked int
		for d := 1; d <= 10; d++ {
			sel += len(selectSchedule(3*d, k).layers)
			ranked += SelectTopLayers(3*d, k)
		}
		t.Logf("  k=%d: %d -> %d", k, sel, ranked)
	}
}

// TestEncSelectTop decrypts the selection's output: the first min(k, n)
// positions must equal the plaintext sort, the rest must be the leftover
// multiset, payload columns must travel with their key, and every
// scheduled layer must cost exactly one round.
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
		{"top 2 of 6 with ties", []int64{4, 9, 4, 9, 1, 9}, true, 2},
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
			layers := int64(len(rankSchedule(n, tc.k).layers))
			if rounds := e.stats.Rounds() - before; rounds != layers {
				t.Errorf("%d rounds for %d layers, want one a layer", rounds, layers)
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
	// Each would reach a gate's slots and panic there unvalidated.
	good := e.item(t, 3, 7, 1)
	for name, bad := range map[string]Item{
		"nil EHL":             {Scores: good.Scores},
		"fewer score columns": {EHL: good.EHL, Scores: good.Scores[:1]},
	} {
		if _, err := EncSelectTop(ctx, e.client, []Item{good, bad}, 1, true, 1, 16); err == nil {
			t.Errorf("%s: expected malformed item error", name)
		}
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

// TestBatcherLayersProduceValidNetwork checks the network's schedule without
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
			if !zeroOneSelects(s, n, n, in) {
				t.Fatalf("n=%d: input %0*b does not sort", n, n, in)
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
