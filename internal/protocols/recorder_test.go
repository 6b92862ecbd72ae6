package protocols_test

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/knn"
	"repro/internal/nra"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// wireRecorder is a transport.Caller between S1's stub and S2 that keeps
// both parties' views of one query and holds S2's keys and S1's ephemeral
// one, so it can read what either party can read. It reads the nonce
// power c*(1+N)^(-Dec(c)) mod N^2 of every Paillier ciphertext — the one
// part of a ciphertext that adding a plaintext or multiplying by a known
// factor (1+N)^k does not touch — and checks three rules as the query
// runs:
//
//   - S2's: no Paillier ciphertext S2 receives carries a nonce power that
//     any ciphertext of the query, sent or received, carried before. One
//     that did would link the two messages, whatever blinds and
//     permutations S1 put between them.
//   - S1's: no Paillier ciphertext S1 receives carries such a nonce power
//     either, and no other integer S1 receives equals one S1 sent. A
//     reply that repeated, or was a known-factor multiple of, a
//     ciphertext S1 sent would tell S1 where its ciphertext went; one
//     that repeated an earlier reply's randomness (a nonce-1 encryption,
//     say) would let S1 match the two.
//   - The blind records' (Algorithm 7): S1 knows the alpha it put on
//     every slot of every Dedup and Filter row and decrypts the integer
//     S2 left in every returned record. A returned value v that could not
//     have come from input row i — v - alpha_i outside the range
//     [0, N*2^40) S2 draws its re-blind from — tells S1 that the reply row
//     is not row i, and enough of those undo S2's permutation (or, in
//     SecFilter, name the tuples that joined). No reply slot may exclude
//     any input row.
//
// Given the widths a query's callers declare (declaredWidths), it also
// holds every payload S2 decrypts, gadget and Mult alike, to its window:
// a declared b-bit slot's d - r in (-2^(b+41) - 2^b, 2^b), an undeclared
// one a full-width residue. The queries' marked rows and sentinels travel
// in those slots, so a width that did not cover them fails here.
//
// For a top-k query in Qry_F it keeps three more views of S2's: the
// width of every plain EqBits request, how many of its zero tests there
// are and read zero, and, for every ranking, which gates of its first
// layer compared a marked row. A comparison against a marked
// row can show by its size (DESIGN.md "The mark step"): with markedAbove
// set, a gate whose masked difference S2 reads above it had one.
//
// It also holds grouped EqBits requests (SecDedup's Replace mode, which
// no query sends since Qry_F marks its duplicates from SecWorstBest's
// bits) to the uniform-width rule: every group of one request has n - 1
// tests, n the request's bit count, so a group's size never tells S2 how
// many earlier rows it was tested against. That no padding test repeats a
// nonce power is S2's rule above, applied to every test of the group. And
// it holds every equality matrix (SecUpdate's) to at most one match per
// row and per column.
type wireRecorder struct {
	t     testing.TB
	inner transport.Caller
	keys  *cloud.KeyMaterial
	eph   *paillier.PrivateKey // S1's, set once its stub exists
	// declared, once set, are the widths the query's callers declare;
	// windowed counts the payloads held to a declared window.
	declared *declaredWidths
	windowed int

	// markedAbove, once set, is the size of a gate's masked difference
	// above which S2 knows one operand is a marked row.
	markedAbove *big.Int

	mu          sync.Mutex
	powers      map[string]string // nonce power -> the message that first carried it
	sent        map[string]string // other integer S1 sent -> its message
	calls       int
	last        string   // the previous call's method
	dedups      int      // Dedup calls
	grouped     int      // EqBits calls with groups wider than one test
	matrices    int      // EqBits calls with a column section
	bitWidths   []int    // the payloads a bit of each plain EqBits call
	eqTests     int      // the zero tests of every plain EqBits call
	eqZeros     int      // those of them that read zero
	firstLayers []string // markedGates of each ranking's first layer
}

func newWireRecorder(t testing.TB, inner transport.Caller, keys *cloud.KeyMaterial) *wireRecorder {
	return &wireRecorder{t: t, inner: inner, keys: keys, powers: map[string]string{}, sent: map[string]string{}}
}

func (r *wireRecorder) Call(ctx context.Context, method string, req, resp any) error {
	err := r.inner.Call(ctx, method, req, resp)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	in, inOther := s2Receives(req)
	out, outOther := s2Sends(resp)
	at := fmt.Sprintf("%s #%d", method, r.calls)
	for i, c := range in {
		r.fresh("S2", c, fmt.Sprintf("%s request ciphertext %d", at, i))
	}
	for i, c := range out {
		r.fresh("S1", c, fmt.Sprintf("%s reply ciphertext %d", at, i))
	}
	for _, c := range inOther {
		r.sent[c.String()] = at
	}
	for i, c := range outOther {
		if from, ok := r.sent[c.String()]; ok {
			r.t.Errorf("S1 view: %s reply integer %d is what S1 sent in %s", at, i, from)
		}
	}
	if r.declared != nil {
		r.windows(at, method, req)
	}
	switch q := req.(type) {
	case *cloud.GadgetRequest:
		if method == cloud.MethodEqBits && q.Group == 1 && q.Cols == 0 {
			r.bitWidths = append(r.bitWidths, q.Width)
			r.eqTests += len(q.Cts)
			for _, c := range q.Cts {
				if m, err := r.keys.Paillier.Decrypt(&paillier.Ciphertext{C: c}); err != nil {
					r.t.Errorf("S2 view: %s: a zero test does not decrypt: %v", at, err)
				} else if m.Sign() == 0 {
					r.eqZeros++
				}
			}
		}
		if method == cloud.MethodCompareHidden && r.markedAbove != nil && r.last != method {
			r.firstLayers = append(r.firstLayers, r.markedGates(q))
		}
		if q.Cols > 0 {
			r.matrices++
			r.matchings(at, q)
		}
		if q.Group > 1 {
			r.grouped++
			if bits := len(q.Pay) / q.Width; q.Group != bits-1 {
				r.t.Errorf("S2 view: %s reads %d bits from groups of %d tests, not %d", at, bits, q.Group, bits-1)
			}
		}
	case *cloud.DedupRequest:
		r.dedups++
		r.blindRecords(at, q.Rows, resp.(*cloud.DedupReply).Rows)
	case *cloud.FilterRequest:
		r.blindRecords(at, q.Rows, resp.(*cloud.FilterReply).Rows)
	}
	r.last = method
	return nil
}

// markedGates returns, gate by gate, whether a layer's masked difference
// reads above markedAbove: "m" for a gate that compared a marked row
// with a real one, "." otherwise.
func (r *wireRecorder) markedGates(q *cloud.GadgetRequest) string {
	out := make([]byte, len(q.Cts))
	for g, c := range q.Cts {
		v, err := r.keys.Paillier.DecryptSigned(&paillier.Ciphertext{C: c})
		if err != nil {
			r.t.Fatal(err)
		}
		out[g] = '.'
		if v.Abs(v).Cmp(r.markedAbove) > 0 {
			out[g] = 'm'
		}
	}
	return string(out)
}

// declaredWidths are the payload widths one query's callers declare, by
// where a payload travels (0: none, full width).
type declaredWidths struct {
	digests int // the id digest slots at the front of an item's slots: none declared
	score   int // a score slot at a gate, in SecUpdate's matrix or SecDedup's rows
	equal   int // every payload of a plain EqBits round: SecWorstBest's, a join's candidates'
	mult    int // every Mult operand
}

// slot returns the width declared for payload s of a bit of q: a plain
// EqBits round's are all alike; a matrix's scaled row payloads and a
// gate's or SecDedup's are an item's slots, digests first; everything
// crossing, and a column's payloads, are scores.
func (d *declaredWidths) slot(method string, q *cloud.GadgetRequest, col bool, s int) int {
	switch {
	case col || q.Cols > 0 && s >= q.Width-q.Cross:
		return d.score
	case method == cloud.MethodEqBits && q.Group == 1 && q.Cols == 0:
		return d.equal
	case s < d.digests:
		return 0
	}
	return d.score
}

// windows holds every payload S2 decrypts from req to its declared
// window.
func (r *wireRecorder) windows(at, method string, req any) {
	check := func(what string, c *big.Int, b int) {
		v, err := r.keys.Paillier.DecryptSigned(&paillier.Ciphertext{C: c})
		if err != nil {
			r.t.Fatal(err)
		}
		if b == 0 {
			full := new(big.Int).Lsh(big.NewInt(1), uint(r.keys.Paillier.N.BitLen()-64))
			if new(big.Int).Abs(v).Cmp(full) < 0 {
				r.t.Errorf("S2 view: %s %s declares no width but reads %v, short of a full-width residue", at, what, v)
			}
			return
		}
		r.windowed++
		hi := new(big.Int).Lsh(big.NewInt(1), uint(b))
		lo := new(big.Int).Lsh(big.NewInt(1), uint(b+41))
		lo.Add(lo, hi).Neg(lo)
		if v.Cmp(lo) <= 0 || v.Cmp(hi) >= 0 {
			r.t.Errorf("S2 view: %s %s reads %v, outside its %d-bit window", at, what, v, b)
		}
	}
	switch q := req.(type) {
	case *cloud.GadgetRequest:
		for x, c := range q.Pay {
			check(fmt.Sprintf("payload %d", x), c, r.declared.slot(method, q, false, x%q.Width))
		}
		for x, c := range q.ColPay {
			check(fmt.Sprintf("column payload %d", x), c, r.declared.slot(method, q, true, x%q.ColWidth))
		}
	case *cloud.MultRequest:
		for x, c := range append(append([]*big.Int(nil), q.A...), q.B...) {
			check(fmt.Sprintf("operand %d", x), c, r.declared.mult)
		}
	}
}

// matchings holds an equality matrix (SecUpdate's) to the rule its
// leakage argument rests on: at most one zero cell per row and per
// column, so that under S1's row and column permutations the matrix shows
// S2 its number of matches and nothing else.
func (r *wireRecorder) matchings(at string, q *cloud.GadgetRequest) {
	rows := len(q.Cts) / q.Cols
	inRow, inCol := make([]int, rows), make([]int, q.Cols)
	for x, c := range q.Cts {
		m, err := r.keys.Paillier.Decrypt(&paillier.Ciphertext{C: c})
		if err != nil {
			r.t.Fatal(err)
		}
		if m.Sign() == 0 {
			inRow[x/q.Cols]++
			inCol[x%q.Cols]++
		}
	}
	for _, n := range append(inRow, inCol...) {
		if n > 1 {
			r.t.Errorf("S2 view: %s: a %d×%d equality matrix with %d matches in one row or column", at, rows, q.Cols, n)
			return
		}
	}
}

// fresh checks that ciphertext c, which the named party receives, carries
// a nonce power no earlier ciphertext of the query carried, and records it.
func (r *wireRecorder) fresh(party string, c *big.Int, what string) {
	p := r.noncePower(c)
	if first, ok := r.powers[p]; ok {
		r.t.Errorf("%s view: %s carries the nonce power of %s", party, what, first)
		return
	}
	r.powers[p] = what
}

// blindRecords holds one blind-record round to the third rule.
func (r *wireRecorder) blindRecords(at string, sent, returned []cloud.WireRow) {
	alphas, seen := r.openBlinds(sent), r.openBlinds(returned)
	span := new(big.Int).Lsh(r.keys.Paillier.N, 40)
	excluded, pairs := 0, 0
	for _, reply := range seen {
		for _, in := range alphas {
			for s, v := range reply {
				pairs++
				if d := new(big.Int).Sub(v, in[s]); d.Sign() < 0 || d.Cmp(span) >= 0 {
					excluded++
				}
			}
		}
	}
	if excluded > 0 {
		r.t.Errorf("S1 view: %s: %d of %d (reply slot, input row) pairs tell S1 the slot is not that row's", at, excluded, pairs)
	}
}

func (r *wireRecorder) openBlinds(rows []cloud.WireRow) [][]*big.Int {
	if r.eph == nil {
		r.t.Fatal("the recorder has no ephemeral key to read blind records with")
	}
	out := make([][]*big.Int, len(rows))
	for i, row := range rows {
		for _, b := range row.Blinds {
			v, err := r.eph.Decrypt(&paillier.Ciphertext{C: b})
			if err != nil {
				r.t.Fatal(err)
			}
			out[i] = append(out[i], v)
		}
	}
	return out
}

func (r *wireRecorder) noncePower(c *big.Int) string {
	sk := r.keys.Paillier
	m, err := sk.Decrypt(&paillier.Ciphertext{C: c})
	if err != nil {
		r.t.Fatalf("a Paillier slot on the wire does not decrypt: %v", err)
	}
	// (1+N)^(-m) = 1 - m*N mod N^2.
	g := new(big.Int).Mul(m, sk.N)
	g.Sub(big.NewInt(1), g)
	g.Mul(g, c)
	return g.Mod(g, sk.N2).String()
}

// s2Receives splits a request into the Paillier ciphertexts S2 decrypts
// and the integers it cannot open (blind records under S1's ephemeral
// key, its modulus).
func s2Receives(req any) (paillierCts, other []*big.Int) {
	switch r := req.(type) {
	case *cloud.GadgetRequest:
		return append(append(append([]*big.Int(nil), r.Cts...), r.Pay...), r.ColPay...), nil
	case *cloud.CompareRequest:
		return r.Cts, nil
	case *cloud.MultRequest:
		return append(append([]*big.Int(nil), r.A...), r.B...), nil
	case *cloud.DedupRequest:
		cts, blinds := rowInts(r.Rows)
		return append(cts, r.PairCts...), append(blinds, r.EphemeralN)
	case *cloud.FilterRequest:
		cts, blinds := rowInts(r.Rows)
		return append(cts, r.Tests...), append(blinds, r.EphemeralN)
	}
	return nil, nil
}

// s2Sends splits a reply into the Paillier ciphertexts S2 made and every
// other integer (blind records).
func s2Sends(resp any) (paillierCts, other []*big.Int) {
	switch r := resp.(type) {
	case *cloud.GadgetReply:
		return append(append(append([]*big.Int(nil), r.Bits...), r.Cts...), r.ColCts...), nil
	case *cloud.MultReply:
		return r.Products, nil
	case *cloud.DedupReply:
		return rowInts(r.Rows)
	case *cloud.FilterReply:
		return rowInts(r.Rows)
	}
	return nil, nil
}

func rowInts(rows []cloud.WireRow) (cts, blinds []*big.Int) {
	for _, row := range rows {
		cts = append(append(cts, row.EHL...), row.Scores...)
		blinds = append(blinds, row.Blinds...)
	}
	return cts, blinds
}

// TestWireRecorder runs top-k in Qry_F, Qry_E and Qry_Ba, a top-k join and
// a kNN query, each through a fresh wireRecorder, and holds both parties'
// views to its rules, every payload to the window its caller declared. Every query must also return the plaintext
// answer, so the recorder watched the protocol run to its end.
func TestWireRecorder(t *testing.T) {
	const keyBits, scoreBits = 256, 16
	ehlParams := ehl.Params{Kind: ehl.KindPlus, S: 3}
	keys, err := cloud.NewKeyMaterial(keyBits)
	if err != nil {
		t.Fatal(err)
	}
	server, err := cloud.NewServer(keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	ctx := context.Background()
	// client starts a query's recorder: a stub of its own, so the blinds
	// and nonces of one query are never another's.
	client := func(t *testing.T) (*cloud.Client, *wireRecorder) {
		rec := newWireRecorder(t, transport.NewLocal(server, nil), keys)
		c, err := cloud.NewClient(rec, &keys.Paillier.PublicKey, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec.eph = c.Ephemeral()
		t.Cleanup(func() {
			c.Close()
			if rec.calls == 0 {
				t.Error("the query made no S2 call")
			}
			if rec.declared != nil && rec.windowed == 0 {
				t.Error("no payload of the query was held to a declared window")
			}
		})
		return c, rec
	}

	scheme, err := core.NewSchemeFromKeys(core.Params{KeyBits: keyBits, EHL: ehlParams, MaxScoreBits: scoreBits}, keys)
	if err != nil {
		t.Fatal(err)
	}
	// Objects recur across lists at different depths, so SecWorstBest,
	// SecDedup and SecUpdate all find matches, and the query halts at
	// depth 3 or later.
	rel := &dataset.Relation{Name: "recorded", Rows: [][]int64{
		{10, 3, 2}, {8, 8, 0}, {5, 7, 6}, {3, 2, 8}, {1, 1, 1}, {7, 9, 3},
	}}
	er, err := scheme.EncryptRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	attrs := []int{0, 1, 2}
	want, err := nra.TopKExact(rel, attrs, nil, k)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := scheme.NewRevealer(er.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.Options{{Mode: core.QryF}, {Mode: core.QryE}, {Mode: core.QryBa, BatchDepth: 2}} {
		t.Run("topk/"+opts.Mode.String(), func(t *testing.T) {
			c, rec := client(t)
			engine, err := core.NewEngine(c, er)
			if err != nil {
				t.Fatal(err)
			}
			tk, err := scheme.Token(er, attrs, nil, k)
			if err != nil {
				t.Fatal(err)
			}
			// Unit weights: a weighted score has scoreBits + 1 bits.
			magBits := core.MagBits(scoreBits, tk)
			slot := core.SlotBits(magBits)
			rec.declared = &declaredWidths{digests: ehlParams.S, score: slot, equal: scoreBits + 1, mult: slot}
			if opts.Mode == core.QryF {
				// A gate masks d = 2a - 2b - 1 as r*d + r', r < 2^kappa
				// (maskedDiff at magBits + 2). Every real W here is at
				// most 27, so a real gate reads below 2^(kappa+6); one
				// against a marked row, 2^19 lower, reads above it unless
				// r < 2^(kappa-14).
				kappa := keys.Paillier.N.BitLen() - (magBits + 2) - 4
				rec.markedAbove = new(big.Int).Lsh(big.NewInt(1), uint(kappa+6))
			}
			query := func() int {
				res, err := engine.SecQuery(ctx, tk, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rev.RevealTopK(res.Items)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != k || res.Depth < 3 {
					t.Fatalf("%d items at depth %d, want %d items past depth 2", len(got), res.Depth, k)
				}
				for i := range want {
					if got[i].Obj != want[i].Obj {
						t.Fatalf("top-%d is object %d, want %d", i+1, got[i].Obj, want[i].Obj)
					}
				}
				return res.Depth
			}
			depth := query()
			if opts.Mode != core.QryF {
				return
			}
			// Qry_F marks its duplicates from SecWorstBest's bits and
			// keeps every row, so it sends no dedup round at all: no
			// blind records and no grouped EqBits. It carries W forward
			// on the same bits, so it sends no SecUpdate matrix either.
			if rec.dedups != 0 || rec.grouped != 0 || rec.matrices != 0 {
				t.Errorf("Qry_F sent %d Dedup requests, %d grouped EqBits and %d EqBits matrices, want none", rec.dedups, rec.grouped, rec.matrices)
			}
			// Every bit of a SecWorstBest batch, an earlier depth's or its
			// own, carries a W slot and a B slot, so S2 cannot tell which
			// bits test an earlier depth.
			for x, w := range rec.bitWidths {
				if w != 2 {
					t.Errorf("Qry_F's SecWorstBest call %d carries %d payloads a bit, want 2 on every bit", x, w)
				}
			}
			if len(rec.bitWidths) == 0 {
				t.Error("Qry_F sent no SecWorstBest bits")
			}
			// No zero test reads a row of T, marked or not: Qry_F's tests
			// are SecWorstBest's bits alone, one per (item i at depth d,
			// list j != i, depth e <= d), every digest in them read from
			// the relation's lists, and exactly the relation's equality
			// pattern reads zero. So a marked row's digests are never
			// tested again, and the mark step need not touch them.
			if bits, ones := secWorstBestBits(rel, attrs, depth); rec.eqTests != bits || rec.eqZeros != ones {
				t.Errorf("Qry_F sent %d zero tests, %d of them zero, where SecWorstBest's bits over %d depths are %d with %d ones", rec.eqTests, rec.eqZeros, depth, bits, ones)
			}
			// T is in (depth, list) order, which S1 alone knows: each
			// ranking takes it under a fresh permutation, so the gates
			// that show a marked row differ from run to run of one
			// query. In T's own order every run would show the same ones.
			runs := []string{fmt.Sprint(rec.firstLayers)}
			for len(runs) < 4 {
				rec.firstLayers = nil
				if query() != depth {
					t.Fatalf("a rerun of the query halted at another depth than %d", depth)
				}
				runs = append(runs, fmt.Sprint(rec.firstLayers))
			}
			t.Logf("marked gates of the first layer of each ranking, by run: %v", runs)
			same := 0
			for _, run := range runs {
				if run == runs[0] {
					same++
				}
			}
			if same == len(runs) {
				t.Errorf("%d runs of the query showed S2 the same marked gates in every ranking, %s: the ranking input was not re-permuted", len(runs), runs[0])
			}
		})
	}

	t.Run("join", func(t *testing.T) {
		js, err := join.NewSchemeFromKeys(join.Params{KeyBits: keyBits, EHL: ehlParams, MaxScoreBits: scoreBits}, keys)
		if err != nil {
			t.Fatal(err)
		}
		r1 := &dataset.Relation{Name: "R1", Rows: [][]int64{{1, 10, 100}, {2, 20, 200}, {3, 30, 300}, {2, 25, 250}}}
		r2 := &dataset.Relation{Name: "R2", Rows: [][]int64{{2, 5, 500}, {3, 7, 700}, {4, 9, 900}}}
		er1, err := js.EncryptRelation(r1)
		if err != nil {
			t.Fatal(err)
		}
		er2, err := js.EncryptRelation(r2)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := js.NewToken(er1, er2, 0, 0, 1, 1, []int{2}, []int{2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		c, rec := client(t)
		// Join candidates rank with no digest slot.
		rec.declared = &declaredWidths{score: scoreBits + 1, equal: scoreBits + 1}
		engine, err := join.NewEngine(c, er1, er2, scoreBits)
		if err != nil {
			t.Fatal(err)
		}
		tuples, err := engine.SecJoin(ctx, tk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := js.Reveal(tuples)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Score != 37 || got[1].Score != 30 {
			t.Fatalf("join top-2 = %+v, want scores 37, 30", got)
		}
	})

	t.Run("knn", func(t *testing.T) {
		ks, err := knn.NewScheme(keys, ehlParams, scoreBits)
		if err != nil {
			t.Fatal(err)
		}
		pts := &dataset.Relation{Name: "pts", Rows: [][]int64{{1, 1}, {10, 10}, {4, 5}, {9, 8}, {2, 7}}}
		db, err := ks.Encrypt(pts)
		if err != nil {
			t.Fatal(err)
		}
		c, rec := client(t)
		// knn.Engine's widths at two attributes: a distance's for the
		// ranking, a coordinate difference's for the squares.
		magBits := 2*scoreBits + 4 + 2
		rec.declared = &declaredWidths{digests: ehlParams.S, score: magBits, mult: scoreBits}
		engine, err := knn.NewEngine(c, db, scoreBits)
		if err != nil {
			t.Fatal(err)
		}
		items, err := engine.Query(ctx, []int64{9, 9}, 2)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := ks.NewRevealer(len(pts.Rows))
		if err != nil {
			t.Fatal(err)
		}
		for i, wantObj := range []int{3, 1} {
			obj, _, err := rv.Reveal(items[i])
			if err != nil || obj != wantObj {
				t.Fatalf("nn-%d = object %d (%v), want %d", i+1, obj, err, wantObj)
			}
		}
	})
}

// secWorstBestBits counts SecWorstBest's bits over the first depth depths
// of rel's lists, each sorted by score (rel has no ties): one bit per
// (item i at depth d, list j != i, depth e <= d), and the ones among
// them, where the two entries are one object.
func secWorstBestBits(rel *dataset.Relation, attrs []int, depth int) (bits, ones int) {
	lists := make([][]int, len(attrs))
	for j, a := range attrs {
		for o := range rel.Rows {
			lists[j] = append(lists[j], o)
		}
		sort.Slice(lists[j], func(x, y int) bool { return rel.Rows[lists[j][x]][a] > rel.Rows[lists[j][y]][a] })
	}
	for d := 0; d < depth; d++ {
		for i := range lists {
			for j := range lists {
				for e := 0; e <= d && j != i; e++ {
					bits++
					if lists[j][e] == lists[i][d] {
						ones++
					}
				}
			}
		}
	}
	return bits, ones
}
