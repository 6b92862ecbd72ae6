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

// selectionCases builds one selection per (bit count 1-4, which bit is set
// or none) over fresh ciphertexts, with the branch each must resolve to. It
// fails the test unless the integer differences A' - Else' come out with
// both signs, so the mod-N^2 reduction of a negative exponent is exercised.
func (e *testEnv) selectionCases(t testing.TB) (sels []Selection, chosen []*paillier.Ciphertext) {
	t.Helper()
	rng := rand.New(rand.NewSource(14))
	negative, positive := 0, 0
	for n := 1; n <= 4; n++ {
		for set := -1; set < n; set++ { // -1: no bit set
			s := Selection{Else: e.enc(t, int64(1000+rng.Intn(1000)))}
			pick := s.Else
			for i := 0; i < n; i++ {
				a := e.enc(t, int64(rng.Intn(1000)))
				if a.C.Cmp(s.Else.C) < 0 {
					negative++
				} else {
					positive++
				}
				bit := int64(0)
				if i == set {
					bit, pick = 1, a
				}
				s.T, s.A = append(s.T, e.hiddenBit(t, bit)), append(s.A, a)
			}
			sels, chosen = append(sels, s), append(chosen, pick)
		}
	}
	if negative == 0 || positive == 0 {
		t.Fatalf("differences of one sign only (%d negative, %d positive): the mod-N^2 reduction went untested", negative, positive)
	}

	// Selections that share a hidden bit, as Select's callers build them,
	// so the bit's powers are raised together.
	pick := func(bit *dj.Ciphertext, set bool, a, b *paillier.Ciphertext) {
		sels = append(sels, Pick(bit, a, b))
		if set {
			chosen = append(chosen, a)
		} else {
			chosen = append(chosen, b)
		}
	}
	fresh := func() *paillier.Ciphertext { return e.enc(t, int64(rng.Intn(1000))) }
	// A gate: five slots swap on one bit, and a gate in which one slot's
	// two branches are the same ciphertext.
	for _, v := range []int64{1, 0} {
		bit := e.hiddenBit(t, v)
		for slot := 0; slot < 5; slot++ {
			a, b := fresh(), fresh()
			if v == 0 && slot == 2 {
				a = b
			}
			pick(bit, v == 1, a, b)
		}
	}
	// SecUpdate's shape: a pair's bit picks into two columns and is also
	// the first bit of the existing entry's bound chain.
	zero := e.enc(t, 0)
	for set := 0; set < 3; set++ { // which of the chain's three bits is 1
		var ts []*dj.Ciphertext
		for b := 0; b < 3; b++ {
			v := int64(0)
			if b == set {
				v = 1
			}
			ts = append(ts, e.hiddenBit(t, v))
		}
		pick(ts[0], set == 0, fresh(), zero)
		pick(ts[0], set == 0, fresh(), zero)
		chain := Selection{T: ts, A: []*paillier.Ciphertext{fresh(), fresh(), fresh()}, Else: fresh()}
		sels, chosen = append(sels, chain), append(chosen, chain.A[set])
	}
	return sels, chosen
}

// TestPropertySelect holds Select to its plaintext meaning: with at most
// one hidden bit of a selection set, the result decrypts to the chosen
// branch (Else when no bit is set) without repeating any input ciphertext,
// a branch equal to Else puts no factor into the term on the wire, and a
// selection Select cannot build a term for is an error, not a panic.
func TestPropertySelect(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	tap := &recoverTap{inner: transport.NewLocal(e.server, nil)}
	client, err := cloud.NewClient(tap, &e.keys.Paillier.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	pk, djPK := client.PK(), client.DJPK()
	sels, want := e.selectionCases(t)
	// A branch that is the Else ciphertext contributes no factor: the term
	// is the bare embedding of the blinded Else whatever the bit says.
	same := e.enc(t, 7)
	equalAt := len(sels)
	for _, bit := range []int64{0, 1} {
		sels, want = append(sels, Pick(e.hiddenBit(t, bit), same, same)), append(want, same)
	}
	got, err := Select(ctx, client, sels)
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
	for i := equalAt; i < len(sels); i++ {
		blind := new(big.Int).ModInverse(got[i].C, pk.N2)
		blind.Mul(blind, tap.replies[i]).Mod(blind, pk.N2)
		blinded := new(big.Int).Mul(same.C, blind)
		bare, err := djPK.EmbedInner(&paillier.Ciphertext{C: blinded.Mod(blinded, pk.N2)})
		if err != nil {
			t.Fatal(err)
		}
		if tap.terms[i].Cmp(bare.C) != 0 {
			t.Errorf("selection %d: equal branches still multiplied a factor in", i)
		}
	}

	rounds := len(tap.terms)
	n3 := djPK.NS1
	for name, s := range map[string]Selection{
		"a bit without a choice": {T: []*dj.Ciphertext{e.hiddenBit(t, 0)}, Else: same},
		"a nil choice":           {T: []*dj.Ciphertext{e.hiddenBit(t, 0)}, A: []*paillier.Ciphertext{nil}, Else: same},
		"a nil Else":             Pick(e.hiddenBit(t, 0), same, nil),
		"a nil hidden bit":       Pick(nil, e.enc(t, 1), same),
		"a hidden bit of 0":      Pick(&dj.Ciphertext{C: big.NewInt(0)}, e.enc(t, 1), same),
		"a hidden bit of N^3":    Pick(&dj.Ciphertext{C: new(big.Int).Set(n3)}, e.enc(t, 1), same),
		"a negative hidden bit":  Pick(&dj.Ciphertext{C: big.NewInt(-5)}, e.enc(t, 1), same),
	} {
		if _, err := Select(ctx, client, []Selection{Pick(e.hiddenBit(t, 1), same, e.enc(t, 2)), s}); err == nil {
			t.Errorf("%s: Select succeeded", name)
		}
	}
	if len(tap.terms) != rounds {
		t.Errorf("refused selections still sent %d terms to S2", len(tap.terms)-rounds)
	}
}

// recoverTap keeps the terms and replies of every Recover round.
type recoverTap struct {
	inner          transport.Caller
	terms, replies []*big.Int
}

func (c *recoverTap) Call(ctx context.Context, method string, req, resp any) error {
	err := c.inner.Call(ctx, method, req, resp)
	if r, ok := req.(*cloud.RecoverRequest); ok && err == nil {
		c.terms = append(c.terms, r.Cts...)
		c.replies = append(c.replies, resp.(*cloud.RecoverReply).Cts...)
	}
	return err
}

// TestSelectTermIsBlindedOnce reads Select off the wire: the blind S1
// divides out of reply i is R_i = reply_i / output_i mod N^2, and the term
// S1 sent for selection i must decrypt to the chosen ciphertext times
// exactly that — one blind, a distinct unit below N^2, applied once, and
// never the chosen ciphertext itself — for 1-4 bits, differences of both
// signs, and hidden bits shared across selections.
func TestSelectTermIsBlindedOnce(t *testing.T) {
	e := env(t)
	tap := &recoverTap{inner: transport.NewLocal(e.server, nil)}
	client, err := cloud.NewClient(tap, &e.keys.Paillier.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	pk := client.PK()
	sels, chosen := e.selectionCases(t)
	out, err := Select(context.Background(), client, sels)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(tap.terms) != len(sels) || len(tap.replies) != len(sels) {
		t.Fatalf("%d terms and %d replies on the wire for %d selections", len(tap.terms), len(tap.replies), len(sels))
	}
	seen := map[string]bool{}
	for i := range sels {
		blind := new(big.Int).ModInverse(out[i].C, pk.N2)
		blind.Mul(blind, tap.replies[i]).Mod(blind, pk.N2)
		if seen[blind.String()] {
			t.Errorf("selection %d reuses another selection's blind", i)
		}
		if blind.Sign() <= 0 || new(big.Int).GCD(nil, nil, blind, pk.N).Cmp(big.NewInt(1)) != 0 {
			t.Errorf("selection %d: the blind is not a unit mod N^2", i)
		}
		seen[blind.String()] = true
		inner, err := e.keys.DJ.DecryptInner(&dj.Ciphertext{C: tap.terms[i]})
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Mul(chosen[i].C, blind)
		if want.Mod(want, pk.N2); inner.C.Cmp(want) != 0 {
			t.Errorf("selection %d: the term does not hold the chosen ciphertext times the blind that unblinds its reply", i)
		}
		if inner.C.Cmp(chosen[i].C) == 0 {
			t.Errorf("selection %d: the term holds the chosen ciphertext unblinded", i)
		}
		if got, want := e.dec(t, out[i]), e.dec(t, chosen[i]); got != want {
			t.Errorf("selection %d resolved to %d, want %d", i, got, want)
		}
	}
}

// blindTap decrypts, with S1's ephemeral key, the blind records of every
// Dedup and Filter round: alphas[row][slot] as S1 sent them, seen[row][slot]
// as S2 returned them.
type blindTap struct {
	t            testing.TB
	inner        transport.Caller
	eph          *paillier.PrivateKey
	alphas, seen [][]*big.Int
}

func (c *blindTap) open(rows []cloud.WireRow) [][]*big.Int {
	out := make([][]*big.Int, len(rows))
	for i, row := range rows {
		for _, b := range row.Blinds {
			v, err := c.eph.Decrypt(&paillier.Ciphertext{C: b})
			if err != nil {
				c.t.Fatal(err)
			}
			out[i] = append(out[i], v)
		}
	}
	return out
}

func (c *blindTap) Call(ctx context.Context, method string, req, resp any) error {
	err := c.inner.Call(ctx, method, req, resp)
	if err != nil {
		return err
	}
	switch r := req.(type) {
	case *cloud.DedupRequest:
		c.alphas, c.seen = c.open(r.Rows), c.open(resp.(*cloud.DedupReply).Rows)
	case *cloud.FilterRequest:
		c.alphas, c.seen = c.open(r.Rows), c.open(resp.(*cloud.FilterReply).Rows)
	}
	return nil
}

// TestBlindRecordsHideRows is the S1-side leakage check of the two
// blind-record rounds. S1 knows the alpha it put on every slot of every row
// and decrypts the integer S2 left in every returned record; a returned
// value v that could not have come from input row i — v - alpha_i outside
// the range [0, N*2^40) S2 draws its re-blind from — tells S1 that the
// reply row is not row i, and enough of those undo S2's permutation (or, in
// SecFilter, name the tuples that joined). No reply slot may exclude any
// input row, over SecDedup's three modes and SecFilter.
func TestBlindRecordsHideRows(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	tap := &blindTap{t: t, inner: transport.NewLocal(e.server, nil)}
	client, err := cloud.NewClient(tap, &e.keys.Paillier.PublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	tap.eph = client.Ephemeral()
	span := new(big.Int).Lsh(client.PK().N, 40)
	check := func(what string, wantRows int) {
		t.Helper()
		if len(tap.seen) != wantRows {
			t.Fatalf("%s: %d reply rows, want %d", what, len(tap.seen), wantRows)
		}
		excluded := 0
		for _, reply := range tap.seen {
			for _, in := range tap.alphas {
				for s, v := range reply {
					if d := new(big.Int).Sub(v, in[s]); d.Sign() < 0 || d.Cmp(span) >= 0 {
						excluded++
					}
				}
			}
		}
		if excluded > 0 {
			t.Errorf("%s: %d of %d (reply slot, input row) pairs tell S1 the slot is not that row's",
				what, excluded, len(tap.seen)*len(tap.alphas)*len(tap.seen[0]))
		}
	}

	items := func() []Item {
		return []Item{e.item(t, 1, 10, 20), e.item(t, 2, 30, 40), e.item(t, 1, 5, 20), e.item(t, 3, 50, 60), e.item(t, 4, 70, 80)}
	}
	for _, tc := range []struct {
		mode cloud.DedupMode
		rows int
		cols []int
	}{{cloud.DedupReplace, 5, nil}, {cloud.DedupEliminate, 4, nil}, {cloud.DedupMerge, 4, []int{ColWorst}}} {
		if _, err := SecDedup(ctx, client, items(), tc.mode, AllPairs(5), tc.cols); err != nil {
			t.Fatalf("SecDedup %s: %v", tc.mode, err)
		}
		check("SecDedup "+tc.mode.String(), tc.rows)
	}
	var tuples []JoinTuple
	for i := 0; i < 6; i++ {
		tuples = append(tuples, JoinTuple{Score: e.enc(t, int64(i%2*(7+i))), Attrs: []*paillier.Ciphertext{e.enc(t, int64(i)), e.enc(t, int64(-i))}})
	}
	if _, err := SecFilter(ctx, client, tuples); err != nil {
		t.Fatalf("SecFilter: %v", err)
	}
	check("SecFilter", 3)
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
