package core

import (
	"context"
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// faultyCaller injects a transport failure after a fixed number of
// successful rounds.
type faultyCaller struct {
	inner    transport.Caller
	failFrom int
	calls    int
}

func (f *faultyCaller) Call(ctx context.Context, method string, req, resp any) error {
	f.calls++
	if f.calls > f.failFrom {
		return errors.New("injected transport failure")
	}
	return f.inner.Call(ctx, method, req, resp)
}

// TestTransportFailureSurfacesAsError kills the link mid-query at various
// points; the engine must return an error (never panic, never fabricate
// results). The points come from a clean run's call count, so each one
// cuts the query before its last call.
func TestTransportFailureSurfacesAsError(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	run := func(failFrom int) (*faultyCaller, *QueryResult, error) {
		fc := &faultyCaller{inner: transport.NewLocal(r.server, nil), failFrom: failFrom}
		client, err := cloud.NewClient(fc, r.scheme.PublicKey(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := NewEngine(client, er)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE})
		return fc, res, err
	}
	clean, _, err := run(math.MaxInt)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	n := clean.calls
	if n < 4 {
		t.Fatalf("the clean query made %d S2 calls, too few to cut it mid-run", n)
	}
	for _, failFrom := range []int{0, 1, n / 4, n / 2, 3 * n / 4, n - 1} {
		_, res, err := run(failFrom)
		if err == nil {
			t.Fatalf("failFrom=%d of %d calls: expected error, got result depth=%d", failFrom, n, res.Depth)
		}
		if !strings.Contains(err.Error(), "injected transport failure") {
			t.Fatalf("failFrom=%d: unexpected error: %v", failFrom, err)
		}
	}
}

// TestCorruptedCiphertextRejected corrupts an encrypted relation entry;
// the engine must fail cleanly when the protocols hit it.
func TestCorruptedCiphertextRejected(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)
	// Deep-ish copy of the first list so other tests' cache stays clean.
	corrupted := &EncryptedRelation{
		Name: er.Name, N: er.N, M: er.M,
		EHLParams: er.EHLParams, MaxScoreBits: er.MaxScoreBits,
		Lists: make([][]EncItem, len(er.Lists)),
	}
	for i, l := range er.Lists {
		corrupted.Lists[i] = append([]EncItem(nil), l...)
	}
	bad := corrupted.Lists[0][0]
	corrupted.Lists[0][0] = EncItem{
		EHL:   bad.EHL,
		Score: &paillier.Ciphertext{C: big.NewInt(0)}, // outside the ciphertext group
	}
	tk, err := r.scheme.Token(corrupted, []int{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(r.client, corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE}); err == nil {
		t.Fatal("expected error for corrupted ciphertext")
	}
}

// TestWrongKeyRelationFails queries a relation encrypted under a
// different key pair: every decryption at S2 yields garbage, but the
// run must not panic and the revealed result must fail, not silently
// mis-answer.
func TestWrongKeyRelationFails(t *testing.T) {
	r := getRig(t)
	otherScheme, err := NewScheme(Params{KeyBits: 256, EHL: ehl.Params{Kind: ehl.KindPlus, S: 3}, MaxScoreBits: 20})
	if err != nil {
		t.Fatal(err)
	}
	er, err := otherScheme.EncryptRelation(figure3())
	if err != nil {
		t.Fatal(err)
	}
	tk, err := otherScheme.Token(er, []int{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	// r.client talks to a server holding r.scheme's keys, not otherScheme's.
	engine, err := NewEngine(r.client, er)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE, MaxDepth: 2})
	if err != nil {
		return // clean failure is acceptable
	}
	// If the protocols happened to run, the result must not reveal as a
	// valid answer under the true key.
	rev, err := otherScheme.NewRevealer(er.N)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rev.RevealTopK(res.Items); err == nil {
		t.Log("wrong-key run produced revealable items (possible but must not be meaningful)")
	}
}
