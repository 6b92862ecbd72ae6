package cloud

import (
	"context"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"

	"repro/internal/paillier"
	"repro/internal/secerr"
	"repro/internal/transport"
)

type testEnv struct {
	keys   *KeyMaterial
	server *Server
	client *Client
	s2led  *Ledger
	stats  *transport.Stats
}

var (
	envOnce sync.Once
	sharedE *testEnv
)

// env builds a shared server/client pair over the in-process transport.
func env(t testing.TB) *testEnv {
	t.Helper()
	envOnce.Do(func() {
		keys, err := NewKeyMaterial(256)
		if err != nil {
			t.Fatalf("NewKeyMaterial: %v", err)
		}
		led := NewLedger()
		srv, err := NewServer(keys, led)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		stats := transport.NewStats()
		client, err := NewClient(transport.NewLocal(srv, stats), &keys.Paillier.PublicKey, NewLedger())
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		sharedE = &testEnv{keys: keys, server: srv, client: client, s2led: led, stats: stats}
	})
	return sharedE
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Fatal("expected error for nil keys")
	}
	if _, err := NewServer(&KeyMaterial{}, nil); err == nil {
		t.Fatal("expected error for incomplete keys")
	}
}

func TestNewClientValidation(t *testing.T) {
	e := env(t)
	if _, err := NewClient(nil, &e.keys.Paillier.PublicKey, nil); err == nil {
		t.Fatal("expected error for nil caller")
	}
	if _, err := NewClient(transport.NewLocal(e.server, nil), nil, nil); err == nil {
		t.Fatal("expected error for nil pk")
	}
}

// checkGadget runs one round of the hidden-bit gadget under method through
// the client: the group tests[k*group : (k+1)*group] decides bit k
// (want[k]), and bit k's two payloads encrypt 10k and 10k+1. S2 must
// answer Enc(t_k) and, per payload, its plaintext when t_k = 1 and zero
// when t_k = 0, every reply ciphertext under a nonce of its own. It then
// holds S2 to refusing a malformed round typed, before it decrypts
// anything.
func checkGadget(t *testing.T, method string, group int, tests []*paillier.Ciphertext, want []int64) {
	t.Helper()
	e := env(t)
	pk := &e.keys.Paillier.PublicKey
	var pay []*paillier.Ciphertext
	for k := range want {
		for s := 0; s < 2; s++ {
			ct, err := pk.EncryptInt64(int64(10*k + s))
			if err != nil {
				t.Fatal(err)
			}
			pay = append(pay, ct)
		}
	}
	bits, out, err := e.client.Gadget(context.Background(), method, group, 2, tests, pay)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	if len(bits) != len(want) || len(out) != len(pay) {
		t.Fatalf("%s: %d bits and %d payloads, want %d and %d", method, len(bits), len(out), len(want), len(pay))
	}
	for k, w := range want {
		if m, _ := e.keys.Paillier.Decrypt(bits[k]); m.Int64() != w {
			t.Errorf("%s bit %d = %v, want %d", method, k, m, w)
		}
		for s := 0; s < 2; s++ {
			got := out[2*k+s]
			if m, _ := e.keys.Paillier.Decrypt(got); m.Int64() != w*int64(10*k+s) {
				t.Errorf("%s bit %d payload %d = %v, want %d", method, k, s, m, w*int64(10*k+s))
			}
			for _, p := range pay {
				if got.C.Cmp(p.C) == 0 {
					t.Errorf("%s bit %d payload %d is a request payload verbatim", method, k, s)
				}
			}
		}
	}
	if out, _, err := e.client.Gadget(context.Background(), method, group, 2, nil, nil); err != nil || out != nil {
		t.Errorf("%s: an empty round should be a no-op", method)
	}
	if _, _, err := e.client.Gadget(context.Background(), method, group, 2, tests, pay[1:]); err == nil {
		t.Errorf("%s: client sent a round with a payload missing", method)
	}
	if _, _, err := e.client.Gadget(context.Background(), method, group+1, 2, tests, pay); err == nil {
		t.Errorf("%s: client sent a round whose tests do not split into its bits", method)
	}
	if _, _, err := e.client.Gadget(context.Background(), method, 1, 2, []*paillier.Ciphertext{nil}, pay[:2]); err == nil {
		t.Errorf("%s: client sent a nil test ciphertext", method)
	}

	one, zero := big.NewInt(1), new(big.Int)
	malformed := map[string]*GadgetRequest{
		"width zero":          {Width: 0, Group: 1, Cts: []*big.Int{one}},
		"group zero":          {Width: 1, Group: 0, Cts: []*big.Int{one}, Pay: []*big.Int{one}},
		"tests split a group": {Width: 1, Group: 2, Cts: []*big.Int{one, one, one}, Pay: []*big.Int{one, one}},
		"a payload short":     {Width: 2, Group: 1, Cts: []*big.Int{one}, Pay: []*big.Int{one}},
		"width past the body": {Width: 1 << 62, Group: 1, Cts: []*big.Int{one, one}},
		"group past the body": {Width: 1, Group: 1 << 62, Cts: []*big.Int{one}},
		"nil payload":         {Width: 2, Group: 1, Cts: []*big.Int{one}, Pay: []*big.Int{one, nil}},
		"payload outside N^2": {Width: 2, Group: 1, Cts: []*big.Int{one}, Pay: []*big.Int{pk.N2, one}},
		"zero payload":        {Width: 2, Group: 1, Cts: []*big.Int{one}, Pay: []*big.Int{one, zero}},
		"nil test":            {Width: 2, Group: 1, Cts: []*big.Int{nil}, Pay: []*big.Int{one, one}},
		"test not a ct":       {Width: 2, Group: 1, Cts: []*big.Int{zero}, Pay: []*big.Int{one, one}},
	}
	if method != MethodEqBits {
		malformed["grouped"] = &GadgetRequest{Width: 1, Group: 2, Cts: []*big.Int{one, one}, Pay: []*big.Int{one}}
	}
	for name, req := range malformed {
		if _, err := e.server.gadget(context.Background(), method, req); !errors.Is(err, secerr.ErrBadRequest) {
			t.Errorf("%s, %s: got %v, want bad_request", method, name, err)
		}
	}
}

// TestEqBits: under EqBits the bit is the zero test of the difference.
func TestEqBits(t *testing.T) {
	pk := &env(t).keys.Paillier.PublicKey
	zero, _ := pk.EncryptInt64(0)
	nz, _ := pk.EncryptInt64(991)
	zero2, _ := pk.EncryptInt64(0)
	checkGadget(t, MethodEqBits, 1, []*paillier.Ciphertext{zero, nz, zero2}, []int64{1, 0, 1})
}

// TestEqBitsGrouped: a group of EqBits tests sets its bit iff any of them
// is zero, once or more (SecDedup's OR over a row's earlier rows).
func TestEqBitsGrouped(t *testing.T) {
	pk := &env(t).keys.Paillier.PublicKey
	enc := func(m int64) *paillier.Ciphertext {
		ct, err := pk.EncryptInt64(m)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	tests := []*paillier.Ciphertext{
		enc(17), enc(0), enc(4), // one equal
		enc(5), enc(901), enc(-3), // none
		enc(0), enc(0), enc(0), // all equal
	}
	checkGadget(t, MethodEqBits, 3, tests, []int64{1, 0, 1})
}

// TestEqBitsMatrix: with a column section the bits are the cells of an
// R×C matrix of zero tests. Here R = 3 rows against C = 4 columns, row 0
// matching column 2 and row 2 column 0. Row r carries 10r, 10r+1, 10r+2,
// the last two crossing; column c carries 100c and 100c+1, the last
// crossing. S2 must answer Enc(t_rc) per cell; per row t_r*10r and then
// the crossing column payload of the column it matches (0 for none); per
// column t_c*100c and then the two crossing payloads of the row it
// matches; every reply under a nonce of S2's own. Its ledger names the
// matrix and its match count. A malformed matrix is refused typed before
// anything is decrypted.
func TestEqBitsMatrix(t *testing.T) {
	e := env(t)
	pk := &e.keys.Paillier.PublicKey
	enc := func(m int64) *paillier.Ciphertext {
		ct, err := pk.EncryptInt64(m)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	const R, C = 3, 4
	match := map[int]int{0: 2, 2: 0}
	var cells []*paillier.Ciphertext
	for r := 0; r < R; r++ {
		for c := 0; c < C; c++ {
			m := int64(7 + r + c)
			if to, ok := match[r]; ok && to == c {
				m = 0
			}
			cells = append(cells, enc(m))
		}
	}
	rows := MatrixSide{Items: R, Width: 3, Cross: 2}
	for r := 0; r < R; r++ {
		rows.Pay = append(rows.Pay, enc(int64(10*r)), enc(int64(10*r+1)), enc(int64(10*r+2)))
	}
	cols := MatrixSide{Items: C, Width: 2, Cross: 1}
	for c := 0; c < C; c++ {
		cols.Pay = append(cols.Pay, enc(int64(100*c)), enc(int64(100*c+1)))
	}
	e.s2led.Reset()
	bits, rowOut, colOut, err := e.client.Matrix(context.Background(), cells, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for r := 0; r < R; r++ {
		for c := 0; c < C; c++ {
			if to, ok := match[r]; ok && to == c {
				want = append(want, 1)
			} else {
				want = append(want, 0)
			}
		}
	}
	for r := 0; r < R; r++ {
		if c, ok := match[r]; ok {
			want = append(want, int64(10*r), int64(100*c+1))
		} else {
			want = append(want, 0, 0)
		}
	}
	for c := 0; c < C; c++ {
		found := false
		for r, to := range match {
			if to == c {
				want = append(want, int64(100*c), int64(10*r+1), int64(10*r+2))
				found = true
			}
		}
		if !found {
			want = append(want, 0, 0, 0)
		}
	}
	got := append(append(append([]*paillier.Ciphertext(nil), bits...), rowOut...), colOut...)
	if len(got) != len(want) {
		t.Fatalf("%d bits, %d row and %d column outputs; want %d, %d and %d", len(bits), len(rowOut), len(colOut), R*C, 2*R, 3*C)
	}
	sent := append(append(append([]*paillier.Ciphertext(nil), cells...), rows.Pay...), cols.Pay...)
	for i, ct := range got {
		if m, err := e.keys.Paillier.Decrypt(ct); err != nil || m.Int64() != want[i] {
			t.Errorf("reply ciphertext %d = %v (%v), want %d", i, m, err, want[i])
		}
		for _, in := range sent {
			if ct.C.Cmp(in.C) == 0 {
				t.Errorf("reply ciphertext %d is a request ciphertext verbatim", i)
			}
		}
	}
	if ev := e.s2led.ByMethod(MethodEqBits); len(ev) != 1 || !strings.Contains(ev[0].Detail, "3×4 cells, 2 equal") {
		t.Errorf("ledger = %v, want one EqBits line naming 3×4 cells, 2 equal", ev)
	}

	bad := cols
	bad.Pay = cols.Pay[1:]
	if _, _, _, err := e.client.Matrix(context.Background(), cells, rows, bad); err == nil {
		t.Error("client sent a matrix with a column payload missing")
	}
	if _, _, _, err := e.client.Matrix(context.Background(), cells[1:], rows, cols); err == nil {
		t.Error("client sent a matrix a cell short")
	}

	one, zero := big.NewInt(1), new(big.Int)
	ones := func(n int) []*big.Int {
		out := make([]*big.Int, n)
		for i := range out {
			out[i] = one
		}
		return out
	}
	matrix := func(edit func(*GadgetRequest)) *GadgetRequest {
		req := &GadgetRequest{Width: 3, Group: 1, Cts: ones(R * C), Pay: ones(3 * R), Cross: 2, Cols: C, ColWidth: 2, ColCross: 1, ColPay: ones(2 * C)}
		edit(req)
		return req
	}
	malformed := map[string]*GadgetRequest{
		"cells not R·C":              matrix(func(q *GadgetRequest) { q.Cts = ones(R*C - 1) }),
		"no cells":                   matrix(func(q *GadgetRequest) { q.Cts, q.Pay = nil, nil }),
		"a column payload short":     matrix(func(q *GadgetRequest) { q.ColPay = ones(2*C - 1) }),
		"a column payload too many":  matrix(func(q *GadgetRequest) { q.ColPay = ones(2*C + 1) }),
		"a nil column payload":       matrix(func(q *GadgetRequest) { q.ColPay[3] = nil }),
		"a zero column payload":      matrix(func(q *GadgetRequest) { q.ColPay = append(ones(2*C-1), zero) }),
		"column payload outside N^2": matrix(func(q *GadgetRequest) { q.ColPay = append(ones(2*C-1), pk.N2) }),
		"crossing past the width":    matrix(func(q *GadgetRequest) { q.Cross = 4 }),
		"column crossing past width": matrix(func(q *GadgetRequest) { q.ColCross = 3 }),
		"columns but no Cols":        matrix(func(q *GadgetRequest) { q.Cols = 0 }),
		"groups of two":              matrix(func(q *GadgetRequest) { q.Group, q.Cts = 2, ones(2*R*C) }),
		"column width past the body": matrix(func(q *GadgetRequest) { q.ColWidth, q.ColCross, q.ColPay = 1<<62, 0, nil }),
		// Twelve rows against one column, each receiving 40 crossing sums:
		// 480 sums for 64 ciphertexts sent.
		"crossing sums past twice the request": {Width: 1, Group: 1, Cts: ones(12), Pay: ones(12), Cols: 1, ColWidth: 40, ColCross: 40, ColPay: ones(40)},
	}
	for name, req := range malformed {
		if _, err := e.server.gadget(context.Background(), MethodEqBits, req); !errors.Is(err, secerr.ErrBadRequest) {
			t.Errorf("EqBits matrix, %s: got %v, want bad_request", name, err)
		}
	}
	if _, err := e.server.gadget(context.Background(), MethodCompareHidden, matrix(func(*GadgetRequest) {})); !errors.Is(err, secerr.ErrBadRequest) {
		t.Errorf("CompareHidden with a column section: got %v, want bad_request", err)
	}
}

// TestRecover: S2 no longer serves Algorithm 5's Recover round; a request
// under its name is refused typed unknown_method, whatever it carries,
// and the retry policy does not re-issue it.
func TestRecover(t *testing.T) {
	e := env(t)
	body, err := transport.Encode(&CompareRequest{Cts: []*big.Int{big.NewInt(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.server.Serve(context.Background(), MethodRecover, body); !errors.Is(err, secerr.ErrUnknownMethod) {
		t.Fatalf("Recover: got %v, want unknown_method", err)
	}
	if MethodRetryable(MethodRecover) {
		t.Error("Recover is tabled as retryable")
	}
}

func TestCompareSigns(t *testing.T) {
	e := env(t)
	pk := &e.keys.Paillier.PublicKey
	pos, _ := pk.EncryptInt64(7)
	neg, _ := pk.EncryptInt64(-7)
	zero, _ := pk.EncryptInt64(0)
	got, err := e.client.CompareSigns(context.Background(), []*paillier.Ciphertext{pos, neg, zero})
	if err != nil {
		t.Fatalf("CompareSigns: %v", err)
	}
	if got[0] || !got[1] || got[2] {
		t.Fatalf("signs = %v, want [false true false]", got)
	}
}

// TestCompareHiddenSwap: under CompareHidden the bit is the sign of the
// difference, b = 1 iff it decrypts negative.
func TestCompareHiddenSwap(t *testing.T) {
	pk := &env(t).keys.Paillier.PublicKey
	pos, _ := pk.EncryptInt64(3)
	neg, _ := pk.EncryptInt64(-3)
	checkGadget(t, MethodCompareHidden, 1, []*paillier.Ciphertext{pos, neg}, []int64{0, 1})
}

func TestMultBlinded(t *testing.T) {
	e := env(t)
	pk := &e.keys.Paillier.PublicKey
	a, _ := pk.EncryptInt64(6)
	b, _ := pk.EncryptInt64(7)
	prods, err := e.client.MultBlinded(context.Background(), []*paillier.Ciphertext{a}, []*paillier.Ciphertext{b})
	if err != nil {
		t.Fatalf("MultBlinded: %v", err)
	}
	m, _ := e.keys.Paillier.Decrypt(prods[0])
	if m.Int64() != 42 {
		t.Fatalf("6*7 = %v", m)
	}
	if _, err := e.client.MultBlinded(context.Background(), []*paillier.Ciphertext{a}, nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

// buildRow constructs a WireRow with known digests and scores, blinded
// with zero blinds (Enc_eph(0)) so the test can reason about values
// directly; the server re-blinds anyway.
func buildRow(t *testing.T, e *testEnv, digests []int64, scores []int64) WireRow {
	t.Helper()
	pk := &e.keys.Paillier.PublicKey
	eph := &e.client.Ephemeral().PublicKey
	row := WireRow{}
	for _, d := range digests {
		ct, err := pk.EncryptInt64(d)
		if err != nil {
			t.Fatal(err)
		}
		row.EHL = append(row.EHL, ct.C)
	}
	for _, s := range scores {
		ct, err := pk.EncryptInt64(s)
		if err != nil {
			t.Fatal(err)
		}
		row.Scores = append(row.Scores, ct.C)
	}
	for i := 0; i < len(digests)+len(scores); i++ {
		b, err := eph.EncryptInt64(0)
		if err != nil {
			t.Fatal(err)
		}
		row.Blinds = append(row.Blinds, b.C)
	}
	return row
}

// decodeRow unblinds and decrypts a returned row.
func decodeRow(t *testing.T, e *testEnv, row WireRow) (digests, scores []*big.Int) {
	t.Helper()
	for i, slot := range row.EHL {
		blind, err := e.client.Ephemeral().Decrypt(&paillier.Ciphertext{C: row.Blinds[i]})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := e.keys.Paillier.AddPlain(&paillier.Ciphertext{C: slot}, new(big.Int).Neg(blind))
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.keys.Paillier.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, m)
	}
	for i, slot := range row.Scores {
		blind, err := e.client.Ephemeral().Decrypt(&paillier.Ciphertext{C: row.Blinds[len(row.EHL)+i]})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := e.keys.Paillier.AddPlain(&paillier.Ciphertext{C: slot}, new(big.Int).Neg(blind))
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.keys.Paillier.DecryptSigned(ct)
		if err != nil {
			t.Fatal(err)
		}
		scores = append(scores, m)
	}
	return digests, scores
}

// eqPair encrypts 0 (rows equal) or a nonzero marker (distinct).
func eqPair(t *testing.T, e *testEnv, equal bool) *big.Int {
	t.Helper()
	v := int64(777)
	if equal {
		v = 0
	}
	ct, err := e.keys.Paillier.PublicKey.EncryptInt64(v)
	if err != nil {
		t.Fatal(err)
	}
	return ct.C
}

// TestDedupReplace: S2 refuses a Replace-mode Dedup round typed, however
// well formed, before it decrypts a pair: Qry_F's dedup keeps every row,
// so S1 runs it through the gadget (grouped EqBits) and no blind record
// ever carries it.
func TestDedupReplace(t *testing.T) {
	e := env(t)
	rows := []WireRow{
		buildRow(t, e, []int64{11}, []int64{100, 200}),
		buildRow(t, e, []int64{11}, []int64{100, 200}),
		buildRow(t, e, []int64{22}, []int64{300, 400}),
	}
	e.s2led.Reset()
	_, err := e.client.DedupRound(context.Background(), &DedupRequest{
		Mode:    DedupReplace,
		Rows:    rows,
		PairI:   []int{0, 0, 1},
		PairJ:   []int{1, 2, 2},
		PairCts: []*big.Int{eqPair(t, e, true), eqPair(t, e, false), eqPair(t, e, false)},
	})
	if !errors.Is(err, secerr.ErrBadRequest) {
		t.Fatalf("Replace-mode Dedup: got %v, want bad_request", err)
	}
	if n := len(e.s2led.ByMethod(MethodDedup)); n != 0 {
		t.Fatalf("S2 recorded %d Dedup events for a round it refused", n)
	}
}

func TestDedupEliminate(t *testing.T) {
	e := env(t)
	rows := []WireRow{
		buildRow(t, e, []int64{11}, []int64{100}),
		buildRow(t, e, []int64{11}, []int64{100}),
		buildRow(t, e, []int64{22}, []int64{300}),
	}
	req := &DedupRequest{
		Mode:    DedupEliminate,
		Rows:    rows,
		PairI:   []int{0, 0, 1},
		PairJ:   []int{1, 2, 2},
		PairCts: []*big.Int{eqPair(t, e, true), eqPair(t, e, false), eqPair(t, e, false)},
	}
	resp, err := e.client.DedupRound(context.Background(), req)
	if err != nil {
		t.Fatalf("DedupRound: %v", err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("eliminate mode should return 2 rows, got %d", len(resp.Rows))
	}
	seen := map[int64]bool{}
	for _, r := range resp.Rows {
		digests, _ := decodeRow(t, e, r)
		seen[digests[0].Int64()] = true
	}
	if !seen[11] || !seen[22] {
		t.Fatalf("expected digests 11 and 22, got %v", seen)
	}
}

func TestDedupMerge(t *testing.T) {
	e := env(t)
	// Three occurrences of digest 11 with worst contributions 10, 20, 5;
	// column 1 (best) should keep one representative value.
	rows := []WireRow{
		buildRow(t, e, []int64{11}, []int64{10, 99}),
		buildRow(t, e, []int64{11}, []int64{20, 98}),
		buildRow(t, e, []int64{11}, []int64{5, 97}),
		buildRow(t, e, []int64{22}, []int64{7, 96}),
	}
	req := &DedupRequest{
		Mode:      DedupMerge,
		Rows:      rows,
		PairI:     []int{0, 0, 0, 1, 1, 2},
		PairJ:     []int{1, 2, 3, 2, 3, 3},
		PairCts:   []*big.Int{eqPair(t, e, true), eqPair(t, e, true), eqPair(t, e, false), eqPair(t, e, true), eqPair(t, e, false), eqPair(t, e, false)},
		MergeCols: []int{0},
	}
	resp, err := e.client.DedupRound(context.Background(), req)
	if err != nil {
		t.Fatalf("DedupRound: %v", err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("merge mode should return 2 rows, got %d", len(resp.Rows))
	}
	var mergedW, uniqueW int64 = -1, -1
	for _, r := range resp.Rows {
		digests, scores := decodeRow(t, e, r)
		switch digests[0].Int64() {
		case 11:
			mergedW = scores[0].Int64()
			if b := scores[1].Int64(); b != 99 && b != 98 && b != 97 {
				t.Fatalf("merged best %d not one of the group's", b)
			}
		case 22:
			uniqueW = scores[0].Int64()
		default:
			t.Fatalf("unexpected digest %v", digests[0])
		}
	}
	if mergedW != 35 {
		t.Fatalf("merged worst = %d, want 10+20+5 = 35", mergedW)
	}
	if uniqueW != 7 {
		t.Fatalf("unique worst = %d, want 7", uniqueW)
	}
}

func TestDedupValidation(t *testing.T) {
	e := env(t)
	row := buildRow(t, e, []int64{1}, []int64{2})
	bad := &DedupRequest{
		Mode:    DedupEliminate,
		Rows:    []WireRow{row},
		PairI:   []int{0},
		PairJ:   []int{5}, // out of range
		PairCts: []*big.Int{eqPair(t, e, false)},
	}
	if _, err := e.client.DedupRound(context.Background(), bad); err == nil {
		t.Fatal("expected out-of-range pair error")
	}
	short := &DedupRequest{
		Mode:    DedupEliminate,
		Rows:    []WireRow{{EHL: row.EHL, Scores: row.Scores, Blinds: row.Blinds[:1]}},
		PairI:   nil,
		PairJ:   nil,
		PairCts: nil,
	}
	if _, err := e.client.DedupRound(context.Background(), short); err == nil {
		t.Fatal("expected malformed blind vector error")
	}
	mergeBad := &DedupRequest{
		Mode:      DedupMerge,
		Rows:      []WireRow{row},
		MergeCols: []int{9},
	}
	if _, err := e.client.DedupRound(context.Background(), mergeBad); err == nil {
		t.Fatal("expected merge column range error")
	}
	if _, err := e.client.DedupRound(context.Background(), nil); err == nil {
		t.Fatal("expected nil request error")
	}
}

func TestFilterDropsAndRecovers(t *testing.T) {
	e := env(t)
	pk := &e.keys.Paillier.PublicKey
	eph := e.client.Ephemeral()
	enc := func(k *paillier.PublicKey, v int64) *big.Int {
		ct, err := k.EncryptInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		return ct.C
	}
	// Row A: score 9 blinded by 1000, payload 55 blinded by 7; its test is
	// the score times 123457. Row B's test is zero — it failed the join
	// condition and must be dropped whatever its row holds.
	rowA := WireRow{
		Scores: []*big.Int{enc(pk, 1009), enc(pk, 62)},
		Blinds: []*big.Int{enc(&eph.PublicKey, 1000), enc(&eph.PublicKey, 7)},
	}
	rowB := WireRow{
		Scores: []*big.Int{enc(pk, 31), enc(pk, 66)},
		Blinds: []*big.Int{enc(&eph.PublicKey, 1), enc(&eph.PublicKey, 0)},
	}
	resp, err := e.client.FilterRound(context.Background(), &FilterRequest{
		Rows:  []WireRow{rowA, rowB},
		Tests: []*big.Int{enc(pk, 9*123457), enc(pk, 0)},
	})
	if err != nil {
		t.Fatalf("FilterRound: %v", err)
	}
	if len(resp.Rows) != 1 {
		t.Fatalf("expected 1 surviving row, got %d", len(resp.Rows))
	}
	out := resp.Rows[0]
	if out.Scores[0].Cmp(rowA.Scores[0]) == 0 || out.Blinds[0].Cmp(rowA.Blinds[0]) == 0 {
		t.Fatal("the surviving row came back without a re-blind")
	}
	// The score and the payload unblind the same way: subtract the
	// recorded blind, reduced mod N by AddPlain.
	for j, want := range []int64{9, 55} {
		blind, err := eph.Decrypt(&paillier.Ciphertext{C: out.Blinds[j]})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := pk.AddPlain(&paillier.Ciphertext{C: out.Scores[j]}, blind.Neg(blind))
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.keys.Paillier.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if m.Int64() != want {
			t.Fatalf("unblinded column %d = %v, want %d", j, m, want)
		}
	}
}

func TestFilterMalformedRow(t *testing.T) {
	e := env(t)
	bad := &FilterRequest{Rows: []WireRow{{Scores: nil, Blinds: nil}}, Tests: []*big.Int{big.NewInt(1)}}
	if _, err := e.client.FilterRound(context.Background(), bad); err == nil {
		t.Fatal("expected malformed row error")
	}
	if _, err := e.client.FilterRound(context.Background(), nil); err == nil {
		t.Fatal("expected nil request error")
	}
}

// TestBlindRecordRequestsRefused sends S2 the blind-record requests it must
// refuse as typed bad_request before it builds a key or exponentiates: an
// ephemeral modulus of any width but |N|+64 bits (narrower wraps records,
// wider buys a wide exponentiation per slot), and a Filter whose tests do
// not pair up with its rows.
func TestBlindRecordRequestsRefused(t *testing.T) {
	e := env(t)
	ctx := context.Background()
	pk := &e.keys.Paillier.PublicKey
	ephN := e.client.Ephemeral().N
	one := big.NewInt(1)
	row := WireRow{Scores: []*big.Int{one}, Blinds: []*big.Int{one}}
	if ephN.BitLen() != pk.N.BitLen()+64 {
		t.Fatalf("client's ephemeral modulus is %d bits beside a %d-bit N", ephN.BitLen(), pk.N.BitLen())
	}
	for name, req := range map[string]any{
		"dedup narrow":      &DedupRequest{Mode: DedupEliminate, Rows: []WireRow{row}, EphemeralN: oddOfBits(pk.N.BitLen() + 63)},
		"dedup head-width":  &DedupRequest{Mode: DedupEliminate, Rows: []WireRow{row}, EphemeralN: oddOfBits(2*pk.N.BitLen() + 64)},
		"dedup megabit":     &DedupRequest{Mode: DedupEliminate, Rows: []WireRow{row}, EphemeralN: oddOfBits(1 << 20)},
		"dedup zero":        &DedupRequest{Mode: DedupEliminate, Rows: []WireRow{row}, EphemeralN: new(big.Int)},
		"filter narrow":     &FilterRequest{Rows: []WireRow{row}, Tests: []*big.Int{one}, EphemeralN: oddOfBits(128)},
		"filter megabit":    &FilterRequest{Rows: []WireRow{row}, Tests: []*big.Int{one}, EphemeralN: oddOfBits(1 << 20)},
		"filter no tests":   &FilterRequest{Rows: []WireRow{row}, EphemeralN: ephN},
		"filter more tests": &FilterRequest{Rows: []WireRow{row}, Tests: []*big.Int{one, one}, EphemeralN: ephN},
		"filter zero test":  &FilterRequest{Rows: []WireRow{row}, Tests: []*big.Int{new(big.Int)}, EphemeralN: ephN},
	} {
		method := MethodDedup
		if _, ok := req.(*FilterRequest); ok {
			method = MethodFilter
		}
		body, err := transport.Encode(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.server.Serve(ctx, method, body); !errors.Is(err, secerr.ErrBadRequest) {
			t.Errorf("%s: got %v, want a bad_request", name, err)
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	e := env(t)
	if _, err := e.server.Serve(context.Background(), "Nope", nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("expected unknown method error, got %v", err)
	}
}

func TestMalformedBody(t *testing.T) {
	e := env(t)
	for _, m := range []string{MethodEqBits, MethodCompare, MethodCompareHidden, MethodMult, MethodDedup, MethodFilter} {
		if _, err := e.server.Serve(context.Background(), m, []byte{0xff, 0x01, 0x02}); err == nil {
			t.Errorf("method %s: expected decode error", m)
		}
	}
}

func TestLedgerRecordsEqualityPattern(t *testing.T) {
	e := env(t)
	e.s2led.Reset()
	pk := &e.keys.Paillier.PublicKey
	zero, _ := pk.EncryptInt64(0)
	nz, _ := pk.EncryptInt64(5)
	if _, _, err := e.client.Gadget(context.Background(), MethodEqBits, 1, 1, []*paillier.Ciphertext{zero, nz}, []*paillier.Ciphertext{nz, zero}); err != nil {
		t.Fatal(err)
	}
	events := e.s2led.ByMethod(MethodEqBits)
	if len(events) != 1 {
		t.Fatalf("expected 1 EqBits event, got %d", len(events))
	}
	if !strings.Contains(events[0].Detail, "1 equal of 2") {
		t.Fatalf("event detail = %q", events[0].Detail)
	}
	if events[0].String() == "" {
		t.Fatal("event should format")
	}
}

func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	l.Record("S1", "x", "y")
	if l.Len() != 0 || l.Events() != nil {
		t.Fatal("nil ledger should be inert")
	}
	l.Reset()
}

func TestStatsAccumulate(t *testing.T) {
	e := env(t)
	before := e.stats.Rounds()
	pk := &e.keys.Paillier.PublicKey
	a, _ := pk.EncryptInt64(0)
	if _, _, err := e.client.Gadget(context.Background(), MethodEqBits, 1, 1, []*paillier.Ciphertext{a}, []*paillier.Ciphertext{a}); err != nil {
		t.Fatal(err)
	}
	if e.stats.Rounds() != before+1 {
		t.Fatalf("rounds did not advance: %d -> %d", before, e.stats.Rounds())
	}
}
