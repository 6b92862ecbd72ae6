package cloud

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/transport"
)

// fuzzMethods is every wire method a hostile S1 could name, plus a bogus
// one.
var fuzzMethods = []string{
	MethodHello, MethodEqBits, MethodRecover, MethodCompare,
	MethodCompareHidden, MethodMult, MethodDedup, MethodFilter,
	MethodBatch, MethodApply, "Bogus",
}

// applyEnvelope mirrors the client plane's Apply request shape: a
// relation name plus an opaque serialized delta. S2 deliberately has no
// Apply handler (the crypto cloud holds no relation state to mutate), so
// these envelopes must earn typed unknown-method errors, never a panic —
// including when smuggled inside a batch envelope.
type applyEnvelope struct {
	Relation string
	Delta    []byte
}

// oddOfBits returns the odd integer 2^(bits-1) + 1.
func oddOfBits(bits int) *big.Int {
	n := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
	return n.Add(n, big.NewInt(1))
}

// fuzzSeedBodies are structurally plausible but hostile request bodies:
// nil ciphertexts, mismatched lengths, nil moduli, and shape-violating
// rows — each a case that must come back as an error, never a panic.
func fuzzSeedBodies(t testing.TB) [][]byte {
	t.Helper()
	enc := func(v any) []byte {
		b, err := transport.Encode(v)
		if err != nil {
			t.Fatalf("encoding seed: %v", err)
		}
		return b
	}
	one := big.NewInt(1)
	return [][]byte{
		{},
		{0xff, 0x01, 0x02},
		enc(&HelloRequest{Version: 99}),
		enc(&EqBitsRequest{Cts: []*big.Int{nil, one}}),
		enc(&RecoverRequest{Cts: []*big.Int{nil}}),
		enc(&CompareRequest{Cts: []*big.Int{big.NewInt(0)}}),
		enc(&MultRequest{A: []*big.Int{one}, B: nil}),
		enc(&MultRequest{A: []*big.Int{one}, B: []*big.Int{nil}}),
		enc(&DedupRequest{
			Rows:  []WireRow{{EHL: []*big.Int{nil}, Scores: []*big.Int{one}, Blinds: []*big.Int{one, one}}},
			PairI: []int{0}, PairJ: []int{0}, PairCts: []*big.Int{one},
		}),
		enc(&DedupRequest{
			Rows:       []WireRow{{Scores: []*big.Int{one}, Blinds: []*big.Int{one}}},
			EphemeralN: nil,
		}),
		enc(&DedupRequest{
			Mode:       DedupMerge,
			Rows:       []WireRow{{Scores: []*big.Int{one}, Blinds: []*big.Int{one}}},
			MergeCols:  []int{7},
			EphemeralN: one,
		}),
		enc(&FilterRequest{Rows: []WireRow{{Scores: []*big.Int{nil}, Blinds: []*big.Int{one}}}, EphemeralN: one}),
		enc(&FilterRequest{Rows: []WireRow{{EHL: []*big.Int{one}, Scores: []*big.Int{one}, Blinds: []*big.Int{one}}}, EphemeralN: one}),
		// Ephemeral moduli of the wrong width (a bit short of |N|+64, and
		// wide enough to make one exponentiation a denial of service), and
		// Filter tests that do not pair up with the rows or are nil under a
		// modulus of the right width.
		enc(&DedupRequest{Rows: []WireRow{{Scores: []*big.Int{one}, Blinds: []*big.Int{one}}}, EphemeralN: oddOfBits(256 + 63)}),
		enc(&FilterRequest{Rows: []WireRow{{Scores: []*big.Int{one}, Blinds: []*big.Int{one}}}, Tests: []*big.Int{one}, EphemeralN: oddOfBits(1 << 17)}),
		enc(&FilterRequest{Rows: []WireRow{{Scores: []*big.Int{one}, Blinds: []*big.Int{one}}}, EphemeralN: oddOfBits(256 + 64)}),
		enc(&FilterRequest{Rows: []WireRow{{Scores: []*big.Int{one}, Blinds: []*big.Int{one}}}, Tests: []*big.Int{nil}, EphemeralN: oddOfBits(256 + 64)}),
		// Batch envelopes: hostile item bodies, bogus item methods, nested
		// envelopes, and nil bodies — each must fail per item (or as
		// bad_request), never panic.
		enc(&BatchRequest{}),
		enc(&BatchRequest{Items: []BatchItem{{Method: MethodEqBits, Body: []byte{0xff}}}}),
		enc(&BatchRequest{Items: []BatchItem{
			{Method: "Bogus"},
			{Method: MethodBatch, Body: enc(&BatchRequest{})},
			{Method: MethodRecover, Body: enc(&RecoverRequest{Cts: []*big.Int{nil}})},
		}}),
		// Apply envelopes: a plausible one, an empty one, a garbage delta,
		// and one nested in a batch. S2 has no Apply handler, so every
		// shape must come back unknown_method / per-item error.
		enc(&applyEnvelope{Relation: "r", Delta: []byte{0xde, 0xad}}),
		enc(&applyEnvelope{}),
		enc(&applyEnvelope{Relation: "r", Delta: enc(&HelloRequest{Version: 2})}),
		enc(&BatchRequest{Items: []BatchItem{
			{Method: MethodApply, Body: enc(&applyEnvelope{Relation: "r"})},
		}}),
	}
}

// FuzzServe feeds malformed gob bodies to the single-relation Server and
// the multi-relation Service: a hostile data cloud must never be able to
// panic the crypto cloud, only earn itself typed errors.
func FuzzServe(f *testing.F) {
	keys, err := NewKeyMaterial(256)
	if err != nil {
		f.Fatalf("NewKeyMaterial: %v", err)
	}
	srv, err := NewServer(keys, nil, WithParallelism(1))
	if err != nil {
		f.Fatalf("NewServer: %v", err)
	}
	f.Cleanup(srv.Close)
	svc := NewService()
	if err := svc.Register("r", keys, nil, WithParallelism(1)); err != nil {
		f.Fatalf("Register: %v", err)
	}
	f.Cleanup(svc.Close)

	for mi := range fuzzMethods {
		for _, body := range fuzzSeedBodies(f) {
			f.Add(mi, body)
		}
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, methodIdx int, body []byte) {
		if methodIdx < 0 {
			methodIdx = -methodIdx
		}
		method := fuzzMethods[methodIdx%len(fuzzMethods)]
		// Both responders must survive arbitrary bodies; outputs are either
		// a valid reply or an error — panics fail the fuzz run.
		_, _ = srv.Serve(ctx, method, body)
		_, _ = svc.Serve(ctx, method, body)
	})
}
