package cloud

import (
	"context"
	"math/big"
	"sort"
	"testing"

	"repro/internal/secerr"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fuzzMethods is every wire method a hostile S1 could name — the method
// table's keys, sorted so a corpus entry's index keeps its meaning — plus
// a bogus one.
func fuzzMethods() []string {
	names := make([]string, 0, len(methods)+1)
	for name := range methods {
		names = append(names, name)
	}
	sort.Strings(names)
	return append(names, "Bogus")
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

// MarshalBinary is the client plane's Apply layout: string(Relation) bytes(Delta).
func (m applyEnvelope) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	w.Bytes(m.Delta)
	return w.Finish()
}

// oddOfBits returns the odd integer 2^(bits-1) + 1.
func oddOfBits(bits int) *big.Int {
	n := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
	return n.Add(n, big.NewInt(1))
}

// fuzzSeed is one hostile request: the method it is sent as, its body,
// and the typed code it must earn from Server and Service alike — for a
// batch envelope, the code of each item's result ("" for a served one).
type fuzzSeed struct {
	method string
	body   []byte
	code   secerr.Code
	items  []secerr.Code
}

// fuzzSeedRelation is the relation the seeds name, so the Service routes
// them as far as the Server does.
const fuzzSeedRelation = "r"

// fuzzSeeds are structurally plausible but hostile requests in the wire
// encoding: zero-length integers (the encoding has no nil), mismatched
// lengths, shape-violating rows, counts that overrun the body, trailing
// bytes — each a case that must come back as a typed error, never a
// panic.
func fuzzSeeds(t testing.TB) []fuzzSeed {
	t.Helper()
	enc := func(v any) []byte {
		b, err := transport.Encode(v)
		if err != nil {
			t.Fatalf("encoding seed: %v", err)
		}
		return b
	}
	// raw builds a body field by field, for the shapes Encode refuses.
	raw := func(build func(w *wire.Writer)) []byte {
		var w wire.Writer
		build(&w)
		b, err := w.Finish()
		if err != nil {
			t.Fatalf("encoding seed: %v", err)
		}
		return b
	}
	const rel = fuzzSeedRelation
	zero, one := new(big.Int), big.NewInt(1)
	row := WireRow{Scores: []*big.Int{one}, Blinds: []*big.Int{one}}
	bad, unknown := secerr.CodeBadRequest, secerr.CodeUnknownMethod
	seeds := []fuzzSeed{
		{method: MethodHello, body: enc(&HelloRequest{Version: 99}), code: secerr.CodeProtocolVersion},
		{method: MethodHello, body: append(enc(&HelloRequest{Version: transport.ProtocolVersion}), 0), code: bad}, // trailing byte
		{method: MethodEqBits, body: enc(&EqBitsRequest{Relation: rel, Cts: []*big.Int{zero, one}}), code: bad},
		{method: MethodEqBits, body: raw(func(w *wire.Writer) { w.String(rel); w.Uvarint(1 << 40) }), code: bad},                       // count overruns the body
		{method: MethodEqBits, body: raw(func(w *wire.Writer) { w.String(rel); w.Uvarint(1); w.Uvarint(9); w.Uvarint(1) }), code: bad}, // integer overruns the body
		{method: MethodEqBits, body: raw(func(w *wire.Writer) { w.String(rel); w.Uvarint(1); w.Bytes([]byte{0, 1}) }), code: bad},      // leading zero byte
		{method: MethodEqBits, body: append(raw(func(w *wire.Writer) { w.String(rel) }), 0x80, 0), code: bad},                          // overlong varint
		{method: MethodRecover, body: enc(&RecoverRequest{Relation: rel, Cts: []*big.Int{zero}}), code: bad},
		{method: MethodCompare, body: enc(&CompareRequest{Relation: rel, Cts: []*big.Int{zero}}), code: bad},
		{method: MethodCompareHidden, body: append(enc(&CompareHiddenRequest{Relation: rel, Cts: []*big.Int{one}}), 0xff, 0xff), code: bad}, // trailing garbage
		{method: MethodMult, body: enc(&MultRequest{Relation: rel, A: []*big.Int{one}, B: nil}), code: bad},
		{method: MethodDedup, body: enc(&DedupRequest{
			Relation: rel,
			Rows:     []WireRow{{EHL: []*big.Int{zero}, Scores: []*big.Int{one}, Blinds: []*big.Int{one, one}}},
			PairI:    []int{0}, PairJ: []int{0}, PairCts: []*big.Int{one}, EphemeralN: zero,
		}), code: bad},
		{method: MethodDedup, body: enc(&DedupRequest{Relation: rel, Rows: []WireRow{row}, EphemeralN: zero}), code: bad},
		{method: MethodDedup, body: enc(&DedupRequest{
			Relation: rel, Mode: DedupMerge, Rows: []WireRow{row}, MergeCols: []int{7}, EphemeralN: one,
		}), code: bad},
		{method: MethodDedup, body: raw(func(w *wire.Writer) { w.String(rel); w.Uvarint(0); w.Uvarint(1 << 20) }), code: bad}, // row count overruns the body
		{method: MethodFilter, body: enc(&FilterRequest{Relation: rel, Rows: []WireRow{{Scores: []*big.Int{zero}, Blinds: []*big.Int{one}}}, EphemeralN: one}), code: bad},
		{method: MethodFilter, body: enc(&FilterRequest{Relation: rel, Rows: []WireRow{{EHL: []*big.Int{one}, Scores: []*big.Int{one}, Blinds: []*big.Int{one}}}, EphemeralN: one}), code: bad},
		// Ephemeral moduli of the wrong width (a bit short of |N|+64, and
		// wide enough to make one exponentiation a denial of service), and
		// Filter tests that do not pair up with the rows or are zero under
		// a modulus of the right width.
		{method: MethodDedup, body: enc(&DedupRequest{Relation: rel, Rows: []WireRow{row}, EphemeralN: oddOfBits(256 + 63)}), code: bad},
		{method: MethodFilter, body: enc(&FilterRequest{Relation: rel, Rows: []WireRow{row}, Tests: []*big.Int{one}, EphemeralN: oddOfBits(1 << 17)}), code: bad},
		{method: MethodFilter, body: enc(&FilterRequest{Relation: rel, Rows: []WireRow{row}, EphemeralN: oddOfBits(256 + 64)}), code: bad},
		{method: MethodFilter, body: enc(&FilterRequest{Relation: rel, Rows: []WireRow{row}, Tests: []*big.Int{zero}, EphemeralN: oddOfBits(256 + 64)}), code: bad},
		// Batch envelopes: hostile item bodies, bogus item methods, a
		// nested envelope, empty bodies and an item count that overruns
		// the envelope — each must fail per item (or as bad_request).
		{method: MethodBatch, body: enc(&BatchRequest{})},
		{method: MethodBatch, body: enc(&BatchRequest{Items: []BatchItem{{Method: MethodEqBits, Body: []byte{0xff}}}}), items: []secerr.Code{bad}},
		{method: MethodBatch, body: enc(&BatchRequest{Items: []BatchItem{
			{Method: "Bogus"},
			{Method: MethodBatch, Body: enc(&BatchRequest{})},
			{Method: MethodRecover, Body: enc(&RecoverRequest{Relation: rel, Cts: []*big.Int{zero}})},
			{Method: MethodHello, Body: enc(&HelloRequest{Version: transport.ProtocolVersion})},
		}}), items: []secerr.Code{unknown, bad, bad, ""}},
		{method: MethodBatch, body: raw(func(w *wire.Writer) { w.Uvarint(3); w.String(MethodHello); w.Bytes(nil) }), code: bad},
		// Apply envelopes: a plausible one, an empty one, a garbage delta,
		// and one smuggled in a batch. S2 has no Apply handler, so every
		// shape must come back unknown_method / per-item error.
		{method: MethodApply, body: enc(&applyEnvelope{Relation: rel, Delta: []byte{0xde, 0xad}}), code: unknown},
		{method: MethodApply, body: enc(&applyEnvelope{}), code: unknown},
		{method: MethodApply, body: enc(&applyEnvelope{Relation: rel, Delta: enc(&HelloRequest{Version: 2})}), code: unknown},
		{method: MethodBatch, body: enc(&BatchRequest{Items: []BatchItem{
			{Method: MethodApply, Body: enc(&applyEnvelope{Relation: rel})},
		}}), items: []secerr.Code{unknown}},
		{method: "Bogus", body: nil, code: unknown},
	}
	// An empty body and plain garbage, as every method that decodes one.
	for _, name := range fuzzMethods() {
		if methods[name].handle != nil || name == MethodHello || name == MethodBatch {
			seeds = append(seeds,
				fuzzSeed{method: name, body: nil, code: bad},
				fuzzSeed{method: name, body: []byte{0xff, 0x01, 0x02}, code: bad})
		}
	}
	return seeds
}

// fuzzResponders builds the two responders a hostile body can reach, the
// Service with fuzzSeedRelation registered.
func fuzzResponders(t testing.TB) map[string]transport.Responder {
	t.Helper()
	keys, err := NewKeyMaterial(256)
	if err != nil {
		t.Fatalf("NewKeyMaterial: %v", err)
	}
	srv, err := NewServer(keys, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(srv.Close)
	svc := NewService()
	if err := svc.Register(fuzzSeedRelation, keys, nil); err != nil {
		t.Fatalf("Register: %v", err)
	}
	t.Cleanup(svc.Close)
	return map[string]transport.Responder{"server": srv, "service": svc}
}

// TestFuzzSeedsTyped walks the method table: every method has a seed, and
// every seed earns the code it names from the Server and the Service
// alike — per item for an envelope.
func TestFuzzSeedsTyped(t *testing.T) {
	seeds := fuzzSeeds(t)
	seeded := map[string]bool{}
	for _, s := range seeds {
		seeded[s.method] = true
	}
	for name := range methods {
		if !seeded[name] {
			t.Errorf("method %s is in the method table but has no fuzz seed", name)
		}
	}
	ctx := context.Background()
	for side, r := range fuzzResponders(t) {
		for i, s := range seeds {
			out, err := r.Serve(ctx, s.method, s.body)
			if got := secerr.CodeOf(err); err != nil && got != s.code || err == nil && s.code != "" {
				t.Errorf("%s: seed %d (%s): got %v, want code %q", side, i, s.method, err, s.code)
				continue
			}
			if s.method != MethodBatch || err != nil {
				continue
			}
			var reply BatchReply
			if err := transport.Decode(out, &reply); err != nil || len(reply.Items) != len(s.items) {
				t.Errorf("%s: seed %d: envelope reply has %d items (%v), want %d", side, i, len(reply.Items), err, len(s.items))
				continue
			}
			for j, want := range s.items {
				if got := reply.Items[j].ErrCode; got != string(want) {
					t.Errorf("%s: seed %d item %d: code %q (%s), want %q", side, i, j, got, reply.Items[j].ErrMsg, want)
				}
			}
		}
	}
}

// FuzzServe feeds malformed bodies to the single-relation Server and the
// multi-relation Service: a hostile data cloud must never be able to
// panic the crypto cloud, only earn itself typed errors.
func FuzzServe(f *testing.F) {
	responders := fuzzResponders(f)
	names := fuzzMethods()
	// Every seed body under every method name: a body shaped for one
	// method is a hostile body for the others.
	for mi := range names {
		for _, s := range fuzzSeeds(f) {
			f.Add(mi, s.body)
		}
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, methodIdx int, body []byte) {
		method := names[uint(methodIdx)%uint(len(names))]
		// Both responders must survive arbitrary bodies; outputs are either
		// a valid reply or an error — panics fail the fuzz run.
		for _, r := range responders {
			_, _ = r.Serve(ctx, method, body)
		}
	})
}
