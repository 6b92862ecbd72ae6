package cloud

import (
	"context"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"

	"repro/internal/dj"
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

func TestEqBits(t *testing.T) {
	e := env(t)
	pk := &e.keys.Paillier.PublicKey
	zero, _ := pk.EncryptInt64(0)
	nz, _ := pk.EncryptInt64(991)
	zero2, _ := pk.EncryptInt64(0)
	bits, err := e.client.EqBits(context.Background(), []*paillier.Ciphertext{zero, nz, zero2})
	if err != nil {
		t.Fatalf("EqBits: %v", err)
	}
	want := []int64{1, 0, 1}
	for i, b := range bits {
		m, err := e.keys.DJ.Decrypt(b)
		if err != nil {
			t.Fatalf("decrypt bit %d: %v", i, err)
		}
		if m.Int64() != want[i] {
			t.Errorf("bit %d = %v, want %d", i, m, want[i])
		}
	}
	if out, err := e.client.EqBits(context.Background(), nil); err != nil || out != nil {
		t.Fatal("empty EqBits should be a no-op")
	}
	if _, err := e.client.EqBits(context.Background(), []*paillier.Ciphertext{nil}); err == nil {
		t.Fatal("expected error for nil ciphertext")
	}
}

func TestRecover(t *testing.T) {
	e := env(t)
	pk := &e.keys.Paillier.PublicKey
	inner, _ := pk.EncryptInt64(4242)
	outer, err := e.client.DJPK().EncryptInner(inner)
	if err != nil {
		t.Fatalf("EncryptInner: %v", err)
	}
	got, err := e.client.Recover(context.Background(), []*dj.Ciphertext{outer})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d ciphertexts", len(got))
	}
	m, err := e.keys.Paillier.Decrypt(got[0])
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if m.Int64() != 4242 {
		t.Fatalf("recovered plaintext %v, want 4242", m)
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

func TestCompareSignsHidden(t *testing.T) {
	e := env(t)
	pk := &e.keys.Paillier.PublicKey
	pos, _ := pk.EncryptInt64(3)
	neg, _ := pk.EncryptInt64(-3)
	bits, err := e.client.CompareSignsHidden(context.Background(), []*paillier.Ciphertext{pos, neg})
	if err != nil {
		t.Fatalf("CompareSignsHidden: %v", err)
	}
	m0, _ := e.keys.DJ.Decrypt(bits[0])
	m1, _ := e.keys.DJ.Decrypt(bits[1])
	if m0.Int64() != 0 || m1.Int64() != 1 {
		t.Fatalf("hidden bits = %v %v, want 0 1", m0, m1)
	}
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

func TestDedupReplace(t *testing.T) {
	e := env(t)
	// Rows 0 and 1 are duplicates (digest 11); row 2 is distinct.
	rows := []WireRow{
		buildRow(t, e, []int64{11}, []int64{100, 200}),
		buildRow(t, e, []int64{11}, []int64{100, 200}),
		buildRow(t, e, []int64{22}, []int64{300, 400}),
	}
	req := &DedupRequest{
		Mode:    DedupReplace,
		Rows:    rows,
		PairI:   []int{0, 0, 1},
		PairJ:   []int{1, 2, 2},
		PairCts: []*big.Int{eqPair(t, e, true), eqPair(t, e, false), eqPair(t, e, false)},
	}
	resp, err := e.client.DedupRound(context.Background(), req)
	if err != nil {
		t.Fatalf("DedupRound: %v", err)
	}
	if len(resp.Rows) != 3 {
		t.Fatalf("replace mode must preserve row count, got %d", len(resp.Rows))
	}
	var keptDup, keptUnique, sentinels int
	for _, r := range resp.Rows {
		digests, scores := decodeRow(t, e, r)
		switch {
		case digests[0].Int64() == 11 && scores[0].Int64() == 100:
			keptDup++
		case digests[0].Int64() == 22 && scores[0].Int64() == 300:
			keptUnique++
		case scores[0].Int64() == -1 && scores[1].Int64() == -1:
			sentinels++
		default:
			t.Fatalf("unexpected row: digests=%v scores=%v", digests, scores)
		}
	}
	if keptDup != 1 || keptUnique != 1 || sentinels != 1 {
		t.Fatalf("kept=%d unique=%d sentinels=%d", keptDup, keptUnique, sentinels)
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
		Mode:    DedupReplace,
		Rows:    []WireRow{row},
		PairI:   []int{0},
		PairJ:   []int{5}, // out of range
		PairCts: []*big.Int{eqPair(t, e, false)},
	}
	if _, err := e.client.DedupRound(context.Background(), bad); err == nil {
		t.Fatal("expected out-of-range pair error")
	}
	short := &DedupRequest{
		Mode:    DedupReplace,
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
		"dedup narrow":      &DedupRequest{Rows: []WireRow{row}, EphemeralN: oddOfBits(pk.N.BitLen() + 63)},
		"dedup head-width":  &DedupRequest{Rows: []WireRow{row}, EphemeralN: oddOfBits(2*pk.N.BitLen() + 64)},
		"dedup megabit":     &DedupRequest{Rows: []WireRow{row}, EphemeralN: oddOfBits(1 << 20)},
		"dedup zero":        &DedupRequest{Rows: []WireRow{row}, EphemeralN: new(big.Int)},
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
	for _, m := range []string{MethodEqBits, MethodRecover, MethodCompare, MethodCompareHidden, MethodMult, MethodDedup, MethodFilter} {
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
	if _, err := e.client.EqBits(context.Background(), []*paillier.Ciphertext{zero, nz}); err != nil {
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
	if _, err := e.client.EqBits(context.Background(), []*paillier.Ciphertext{a}); err != nil {
		t.Fatal(err)
	}
	if e.stats.Rounds() != before+1 {
		t.Fatalf("rounds did not advance: %d -> %d", before, e.stats.Rounds())
	}
}
