package protocols

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/prf"
)

// markShift is the duplicate shift the mark tests use: above every W and
// B of their depths, m <= 5 scores below 2^16 each.
var markShift = big.NewInt(1 << 20)

// oneDepth builds one depth of m items, item i carrying object objs[i]
// under h and score scores[i], each list's history that depth alone.
func oneDepth(t testing.TB, e *testEnv, h *ehl.Hasher, objs []uint64, scores []int64) ([]DepthItem, []ListHistory) {
	t.Helper()
	items, hist := make([]DepthItem, len(objs)), make([]ListHistory, len(objs))
	for i, obj := range objs {
		l, err := h.Build(obj)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = DepthItem{EHL: l, Score: e.enc(t, scores[i])}
		hist[i] = ListHistory{EHLs: []*ehl.List{l}, Scores: []*paillier.Ciphertext{items[i].Score}}
	}
	return items, hist
}

// TestMarkEarlierOneDepth is the mark step's property test within a
// depth. Over depth shapes of m = 1..5 items at S = 1 and 3 digests — no
// duplicates, pairs, one object in every list, and random ones — it
// takes the Marks of one SecWorstBestDepths round over a depth with no
// past and marks the depth with them in no further round, then decrypts
// every output. The last copy of each object keeps W and B exactly. The
// copy with u later copies has exactly W - u*shift and B - u*shift.
// Every row keeps its digests, and the rows come back in the order
// given.
func TestMarkEarlierOneDepth(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	pk := &e.keys.Paillier.PublicKey
	master := prf.Key(make([]byte, prf.KeySize))
	one, err := ehl.NewHasher(master, ehl.Params{Kind: ehl.KindPlus, S: 1}, pk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	for _, h := range []*ehl.Hasher{one, e.hasher} {
		S := h.Params().S
		for m := 1; m <= 5; m++ {
			shapes := make([][]uint64, 4) // distinct, pairs, one object, random
			for i := 0; i < m; i++ {
				shapes[0] = append(shapes[0], uint64(i))
				shapes[1] = append(shapes[1], uint64(i/2))
				shapes[2] = append(shapes[2], 3)
				shapes[3] = append(shapes[3], uint64(rng.Intn(3)))
			}
			for _, objs := range shapes {
				name := fmt.Sprintf("S=%d m=%d objects %v", S, m, objs)
				scores := make([]int64, m)
				for i := range scores {
					scores[i] = rng.Int63n(1 << 16)
				}
				scores[0] = 1<<16 - 1
				items, hist := oneDepth(t, e, h, objs, scores)
				bounds, err := SecWorstBestDepths(ctx, e.client, [][]DepthItem{items}, hist)
				if err != nil {
					t.Fatalf("%s: SecWorstBestDepths: %v", name, err)
				}
				b := bounds[0]
				gamma := make([]Item, m)
				for i := range gamma {
					gamma[i] = Item{EHL: items[i].EHL, Scores: []*paillier.Ciphertext{b.Seen[i], b.Best[i]}}
				}
				before := e.stats.Rounds()
				out, err := MarkEarlier(ctx, pk, gamma, b.Marks, markShift)
				if err != nil {
					t.Fatalf("%s: MarkEarlier: %v", name, err)
				}
				if n := e.stats.Rounds() - before; n != 0 || len(out) != m {
					t.Fatalf("%s: %d rows in %d rounds, want %d in none", name, len(out), n, m)
				}
				var sumAll int64
				for _, x := range scores {
					sumAll += x
				}
				want := make([]markedRow, m)
				for i := range objs {
					var u, w int64
					for j, o := range objs {
						if o == objs[i] {
							w += scores[j]
							if j > i {
								u++
							}
						}
					}
					// At a depth with no past, B sums every list's score.
					want[i] = markedRow{w - u*markShift.Int64(), sumAll - u*markShift.Int64(), int64(objs[i])}
				}
				for i, it := range out {
					row := markedRow{e.dec(t, it.Scores[ColWorst]), e.dec(t, it.Scores[ColBest]), digestObject(t, e, h, name, i, it.EHL)}
					if row != want[i] {
						t.Errorf("%s: row %d is (W, B, object) = %v, want %v", name, i, row, want[i])
					}
				}
			}
		}
	}
}

// markedRow is one row of a marked depth as the tests decrypt it: its W,
// its B, and the object of the domain its digests name, -1 for none.
type markedRow struct{ w, b, obj int64 }

// digestObject returns the object among 0..4 whose digests row's list
// carries slot for slot, or -1 when no slot carries any of theirs; a list
// that is neither fails the test.
func digestObject(t *testing.T, e *testEnv, h *ehl.Hasher, name string, row int, l *ehl.List) int64 {
	t.Helper()
	owner := map[string]int64{}
	for o := int64(0); o < 5; o++ {
		ds, err := h.Digests(uint64(o))
		if err != nil {
			t.Fatal(err)
		}
		for s, d := range ds {
			owner[fmt.Sprint(s, d)] = o
		}
	}
	obj := int64(-2)
	for s, ct := range l.Cts {
		d, err := e.keys.Paillier.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		o, ok := owner[fmt.Sprint(s, d)]
		if !ok {
			o = -1
		}
		if obj != -2 && o != obj {
			t.Errorf("%s: row %d mixes digests of objects %d and %d", name, row, obj, o)
		}
		obj = o
	}
	return obj
}

// TestMarkDuplicatesRefuses: the mark pass over one depth's duplicates,
// two copies of one object whose first row carries the later copy's
// equality bit, is an error, not a panic, when MarkEarlier cannot apply
// it. A row with no bits is no longer short: MarkEarlier returns it as
// given, since the newest copy carries none.
func TestMarkDuplicatesRefuses(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	pk := &e.keys.Paillier.PublicKey
	items := []Item{e.item(t, 1, 10, 20), e.item(t, 1, 10, 20)}
	bit := e.enc(t, 1)
	for name, tc := range map[string]struct {
		marks [][]*paillier.Ciphertext
		shift *big.Int
	}{
		"a row of bits short": {[][]*paillier.Ciphertext{{bit}}, markShift},
		"a nil bit":           {[][]*paillier.Ciphertext{{nil}, nil}, markShift},
		"no shift":            {[][]*paillier.Ciphertext{{bit}, nil}, nil},
		"a zero shift":        {[][]*paillier.Ciphertext{{bit}, nil}, big.NewInt(0)},
		"a shift of N":        {[][]*paillier.Ciphertext{{bit}, nil}, pk.N},
	} {
		if _, err := MarkEarlier(ctx, pk, items, tc.marks, tc.shift); err == nil {
			t.Errorf("%s: MarkEarlier succeeded", name)
		}
	}
}

// TestMarkEarlier: a row shifts its score columns down by u*shift, u the
// sum of its bits, keeps its digests, and stays where it was; a row with
// no bits is returned as given. A mark step it cannot apply is an error,
// not a panic.
func TestMarkEarlier(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	pk := &e.keys.Paillier.PublicKey
	rows := []Item{e.item(t, 1, 10, 20), e.item(t, 2, 30, 40), e.item(t, 3, 50, 60), e.item(t, 4, 70, 80)}
	bits := [][]*paillier.Ciphertext{
		nil,
		{e.enc(t, 0), e.enc(t, 0)},
		{e.enc(t, 1), e.enc(t, 0)},
		{e.enc(t, 1), e.enc(t, 1)},
	}
	before := e.stats.Rounds()
	out, err := MarkEarlier(ctx, pk, rows, bits, markShift)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.stats.Rounds() - before; n != 0 || len(out) != len(rows) {
		t.Fatalf("%d rows in %d rounds, want %d in none", len(out), n, len(rows))
	}
	for i, it := range out {
		u := int64(0)
		for _, b := range bits[i] {
			u += e.dec(t, b)
		}
		for col, base := range []int64{10 + 20*int64(i), 20 + 20*int64(i)} {
			if got, want := e.dec(t, it.Scores[col]), base-u*markShift.Int64(); got != want {
				t.Errorf("row %d column %d is %d, want %d", i, col, got, want)
			}
		}
		if obj := digestObject(t, e, e.hasher, "MarkEarlier", i, it.EHL); obj != int64(i+1) {
			t.Errorf("row %d names object %d, want %d", i, obj, i+1)
		}
	}
	if _, err := MarkEarlier(ctx, pk, rows, bits[:3], markShift); err == nil {
		t.Error("MarkEarlier took 3 rows of bits for 4 rows")
	}
	if _, err := MarkEarlier(ctx, pk, rows, [][]*paillier.Ciphertext{nil, {nil}, nil, nil}, markShift); err == nil {
		t.Error("MarkEarlier took a nil bit")
	}
	for name, shift := range map[string]*big.Int{"no shift": nil, "a zero shift": big.NewInt(0), "a shift of N": pk.N} {
		if _, err := MarkEarlier(ctx, pk, rows, bits, shift); err == nil {
			t.Errorf("MarkEarlier took %s", name)
		}
	}
}
