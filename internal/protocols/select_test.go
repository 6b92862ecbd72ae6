package protocols

import (
	"context"
	"math/big"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dj"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// hiddenBit encrypts t under the outer layer, as S2 would answer it.
func (e *testEnv) hiddenBit(t testing.TB, v int64) *dj.Ciphertext {
	t.Helper()
	ct, err := e.client.DJPK().Encrypt(big.NewInt(v))
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestPropertySelect holds Selection to its plaintext meaning: with at most
// one of 1-4 hidden bits set, the term's outer-layer plaintext is exactly
// the ciphertext of the chosen branch (Else when no bit is set), whichever
// way the integer difference A' - Else' points, a branch equal to Else
// costs no exponentiation, and the recovered value decrypts to the chosen
// plaintext without repeating any input ciphertext.
func TestPropertySelect(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	djPK := e.client.DJPK()
	rng := rand.New(rand.NewSource(14))
	var sels []Selection
	var want []*paillier.Ciphertext
	negative, positive := 0, 0
	for n := 1; n <= 4; n++ {
		for set := -1; set < n; set++ { // -1: no bit set
			s := Selection{Else: e.enc(t, int64(1000+rng.Intn(1000)))}
			chosen := s.Else
			for i := 0; i < n; i++ {
				a := e.enc(t, int64(rng.Intn(1000)))
				if a.C.Cmp(s.Else.C) < 0 {
					negative++
				} else {
					positive++
				}
				bit := int64(0)
				if i == set {
					bit, chosen = 1, a
				}
				s.T, s.A = append(s.T, e.hiddenBit(t, bit)), append(s.A, a)
			}
			term, err := s.term(djPK)
			if err != nil {
				t.Fatalf("term(n=%d, set=%d): %v", n, set, err)
			}
			inner, err := e.keys.DJ.DecryptInner(term)
			if err != nil {
				t.Fatal(err)
			}
			if inner.C.Cmp(chosen.C) != 0 {
				t.Fatalf("n=%d set=%d: the term does not hold the chosen ciphertext", n, set)
			}
			sels, want = append(sels, s), append(want, chosen)
		}
	}
	if negative == 0 || positive == 0 {
		t.Fatalf("differences of one sign only (%d negative, %d positive): the mod-N^2 reduction went untested", negative, positive)
	}
	got, err := Select(ctx, e.client, sels)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	for i, s := range sels {
		if g, w := e.dec(t, got[i]), e.dec(t, want[i]); g != w {
			t.Errorf("selection %d resolved to %d, want %d", i, g, w)
		}
		for _, in := range append(s.A, s.Else) {
			if got[i].C.Cmp(in.C) == 0 {
				t.Errorf("selection %d returned an input ciphertext verbatim", i)
			}
		}
	}

	// A branch that is the Else ciphertext contributes no factor: the term
	// is the bare embedding whatever the bit says.
	same := e.enc(t, 7)
	bare, err := djPK.EmbedInner(same)
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int64{0, 1} {
		term, err := Pick(e.hiddenBit(t, bit), same, same).term(djPK)
		if err != nil {
			t.Fatal(err)
		}
		if term.C.Cmp(bare.C) != 0 {
			t.Errorf("bit %d: equal branches still multiplied a factor in", bit)
		}
	}

	if _, err := (Selection{T: []*dj.Ciphertext{e.hiddenBit(t, 0)}, Else: same}).term(djPK); err == nil {
		t.Error("a bit without a choice should fail")
	}
	if _, err := (Selection{T: []*dj.Ciphertext{e.hiddenBit(t, 0)}, A: []*paillier.Ciphertext{nil}, Else: same}).term(djPK); err == nil {
		t.Error("a nil choice should fail")
	}
	if _, err := Pick(e.hiddenBit(t, 0), same, nil).term(djPK); err == nil {
		t.Error("a nil Else should fail")
	}
}

// slotValues decrypts every slot of an item, id digests first.
func (e *testEnv) slotValues(t testing.TB, it Item) []string {
	t.Helper()
	var out []string
	for _, ct := range it.slots() {
		m, err := e.keys.Paillier.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m.String())
	}
	return out
}

// TestGateSwap runs one compare-exchange for both values of the hidden bit:
// position i must hold the item that sorts first and position j the other,
// slot for slot, id digests (arbitrary residues mod N) included, although
// only position i is selected and position j is derived from it.
func TestGateSwap(t *testing.T) {
	e := env(t)
	lo, hi := e.item(t, 41, 3, -5, 70), e.item(t, 42, 9, 6, -80)
	for _, tc := range []struct {
		name         string
		at0, at1     Item
		desc         bool
		want0, want1 Item
	}{
		{"ascending keeps", lo, hi, false, lo, hi},
		{"ascending swaps", hi, lo, false, lo, hi},
		{"descending keeps", hi, lo, true, hi, lo},
		{"descending swaps", lo, hi, true, hi, lo},
	} {
		work := []Item{tc.at0, tc.at1}
		if err := runGateLayer(context.Background(), e.client, work, []gate{{0, 1}}, 0, tc.desc, 18); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for pos, want := range []Item{tc.want0, tc.want1} {
			got, wantVals := e.slotValues(t, work[pos]), e.slotValues(t, want)
			if len(got) != len(wantVals) {
				t.Fatalf("%s: position %d has %d slots, want %d", tc.name, pos, len(got), len(wantVals))
			}
			for s := range got {
				if got[s] != wantVals[s] {
					t.Errorf("%s: position %d slot %d = %s, want %s", tc.name, pos, s, got[s], wantVals[s])
				}
			}
			if work[pos].EHL.Kind != want.EHL.Kind || len(work[pos].EHL.Cts) != len(want.EHL.Cts) {
				t.Errorf("%s: position %d lost its id shape", tc.name, pos)
			}
		}
		// The caller's items are inputs, not scratch space.
		if tc.at0.EHL == work[0].EHL || &tc.at0.Scores[0] == &work[0].Scores[0] {
			t.Errorf("%s: the gate wrote into its input", tc.name)
		}
	}
}

// countingCaller counts the ciphertexts of every CompareHidden and Recover
// request on their way to S2.
type countingCaller struct {
	inner            transport.Caller
	compare, recover atomic.Int64
}

func (c *countingCaller) Call(ctx context.Context, method string, req, resp any) error {
	switch r := req.(type) {
	case *cloud.CompareHiddenRequest:
		c.compare.Add(int64(len(r.Cts)))
	case *cloud.RecoverRequest:
		c.recover.Add(int64(len(r.Cts)))
	}
	return c.inner.Call(ctx, method, req, resp)
}

// TestGateLayerRecoverCount pins what a layer puts on the wire: g gates
// over w-slot items send g masked differences and g*w blinded selections —
// one per slot pair, not one per slot.
func TestGateLayerRecoverCount(t *testing.T) {
	e := env(t)
	caller := &countingCaller{inner: transport.NewLocal(e.server, nil)}
	client, err := cloud.NewClient(caller, &e.keys.Paillier.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	work := make([]Item, 6)
	for i := range work {
		work[i] = e.item(t, uint64(200+i), int64(10*i), int64(i)) // w = 3 digests + 2 scores
	}
	layer := []gate{{0, 1}, {2, 5}, {3, 4}}
	if err := runGateLayer(context.Background(), client, work, layer, 0, true, 18); err != nil {
		t.Fatal(err)
	}
	const g, w = 3, 5
	if got := caller.compare.Load(); got != g {
		t.Errorf("CompareHidden carried %d ciphertexts, want %d", got, g)
	}
	if got := caller.recover.Load(); got != g*w {
		t.Errorf("Recover carried %d ciphertexts, want %d", got, g*w)
	}
}

// TestSelectionOutputsUnlinkable is the S1-side leakage check of every
// protocol that ends in a selection: S1 holds all input ciphertexts, so an
// output slot that repeats one of them as an integer tells S1 where that
// input went — the order EncSort and EncSelectTop exist to hide, the match
// pattern SecWorst/SecBest/SecUpdate exist to hide. No output may equal any
// input, and the outputs must still decrypt to the oracle's values.
func TestSelectionOutputsUnlinkable(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	seen := map[string]bool{}
	note := func(cts ...*paillier.Ciphertext) {
		for _, ct := range cts {
			seen[ct.C.String()] = true
		}
	}
	check := func(what string, cts ...*paillier.Ciphertext) {
		t.Helper()
		for i, ct := range cts {
			if seen[ct.C.String()] {
				t.Errorf("%s: output slot %d is an input ciphertext verbatim", what, i)
			}
		}
	}
	keysOf := func(items []Item) []int64 {
		out := make([]int64, len(items))
		for i, it := range items {
			out[i] = e.dec(t, it.Scores[0])
		}
		return out
	}

	vals := []int64{5, 12, 3}
	items := make([]Item, len(vals))
	for i, v := range vals {
		items[i] = e.item(t, uint64(300+i), v, int64(i))
		note(items[i].slots()...)
	}
	top, err := EncSelectTop(ctx, e.client, items, 0, true, 2, 16)
	if err != nil {
		t.Fatalf("EncSelectTop: %v", err)
	}
	if got := keysOf(top); got[0] != 12 || got[1] != 5 || got[2] != 3 {
		t.Errorf("EncSelectTop keys = %v, want [12 5 3]", got)
	}
	for i, it := range top {
		check("EncSelectTop", it.slots()...)
		if idx := e.dec(t, it.Scores[1]); vals[idx] != e.dec(t, it.Scores[0]) {
			t.Errorf("EncSelectTop position %d: payload decoupled from key", i)
		}
	}
	sorted, err := EncSort(ctx, e.client, items, 0, false, 16)
	if err != nil {
		t.Fatalf("EncSort: %v", err)
	}
	if got := keysOf(sorted); !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) || len(got) != 3 {
		t.Errorf("EncSort keys = %v, want ascending", got)
	}
	for _, it := range sorted {
		check("EncSort", it.slots()...)
	}

	// Lists 0 and 1 meet on object 7 at this depth; list 2 saw it earlier.
	hist := []ListHistory{
		{EHLs: []*ehl.List{e.list(t, 1), e.list(t, 7)}, Scores: []*paillier.Ciphertext{e.enc(t, 50), e.enc(t, 40)}},
		{EHLs: []*ehl.List{e.list(t, 2), e.list(t, 7)}, Scores: []*paillier.Ciphertext{e.enc(t, 45), e.enc(t, 30)}},
		{EHLs: []*ehl.List{e.list(t, 7), e.list(t, 3)}, Scores: []*paillier.Ciphertext{e.enc(t, 60), e.enc(t, 20)}},
	}
	depth := make([]DepthItem, len(hist))
	for j, h := range hist {
		depth[j] = DepthItem{EHL: h.EHLs[1], Score: h.Scores[1]}
		note(h.Scores...)
	}
	worst, best, err := SecWorstBestAll(ctx, e.client, depth, hist)
	if err != nil {
		t.Fatalf("SecWorstBestAll: %v", err)
	}
	for i, want := range [][2]int64{{70, 130}, {70, 130}, {20, 90}} {
		if w, b := e.dec(t, worst[i]), e.dec(t, best[i]); w != want[0] || b != want[1] {
			t.Errorf("SecWorstBestAll item %d (W, B) = (%d, %d), want %v", i, w, b, want)
		}
	}
	check("SecWorstBestAll worst", worst...)
	check("SecWorstBestAll best", best...)

	T := []Item{e.item(t, 1, 10, 26), e.item(t, 2, 8, 26)}
	gamma := []Item{e.item(t, 2, 8, 22), e.item(t, 3, 7, 21)}
	for _, it := range append(append([]Item(nil), T...), gamma...) {
		note(it.slots()...)
	}
	merged, err := SecUpdate(ctx, e.client, T, gamma, cloud.DedupEliminate)
	if err != nil {
		t.Fatalf("SecUpdate: %v", err)
	}
	got := map[uint64][2]int64{}
	for _, it := range merged {
		check("SecUpdate", it.slots()...)
		obj, _ := e.revealObj(t, it.EHL, []uint64{1, 2, 3})
		got[obj] = [2]int64{e.dec(t, it.Scores[0]), e.dec(t, it.Scores[1])}
	}
	if want := map[uint64][2]int64{1: {10, 26}, 2: {16, 22}, 3: {7, 21}}; len(got) != 3 || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Errorf("SecUpdate = %v, want %v", got, want)
	}
}
