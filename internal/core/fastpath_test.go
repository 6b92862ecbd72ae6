package core

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/cloud"
	"repro/internal/transport"
)

// TestSchemeHasherEncryptsThroughOwnerSurface pins that the owner's EHL
// digests and scores share one encryption surface — whichever
// ownerEncryptor picked — on both constructors, and that FastNonce
// therefore covers the digests: a ciphertext c = (1+dN)·rn is congruent
// to its nonce power rn modulo p and q, and the fast-nonce table draws
// powers of a squared base, so every digest of a fast-nonce owner is a
// quadratic residue modulo both primes. A uniform nonce power is with
// probability 1/4, so fifteen in a row from the CRT owner slip through
// once in a billion runs.
func TestSchemeHasherEncryptsThroughOwnerSurface(t *testing.T) {
	r := getRig(t)
	sk := r.scheme.KeyMaterial().Paillier
	for _, fast := range []bool{false, true} {
		params := r.scheme.Params()
		params.FastNonce = fast
		fresh, err := NewSchemeFromKeys(params, r.scheme.KeyMaterial())
		if err != nil {
			t.Fatalf("NewSchemeFromKeys: %v", err)
		}
		restored, err := RestoreScheme(params, r.scheme.KeyMaterial(), r.scheme.Secrets())
		if err != nil {
			t.Fatalf("RestoreScheme: %v", err)
		}
		for name, s := range map[string]*Scheme{"fresh": fresh, "restored": restored} {
			if s.hasher.Encryptor() != s.enc {
				t.Fatalf("FastNonce=%v %s: the hasher encrypts through another surface than the scores", fast, name)
			}
			residues := true
			for id := 0; id < 5; id++ {
				it, err := s.EncryptEntry(id, 1)
				if err != nil {
					t.Fatalf("EncryptEntry: %v", err)
				}
				for _, ct := range it.EHL.Cts {
					residues = residues && big.Jacobi(ct.C, sk.P) == 1 && big.Jacobi(ct.C, sk.Q) == 1
				}
			}
			if residues != fast {
				t.Errorf("FastNonce=%v %s: digests all quadratic residues = %v", fast, name, residues)
			}
		}
	}
}

// TestSecQueryFastPathEquivalence pins the precomputation contract: the
// same query over the same keys and encrypted relation returns identical
// top-k results at identical halting depths on both nonce paths — CRT
// subgroup sampling (the default) and the opt-in short-exponent
// fast-nonce tables — in every query mode. Under `go test -race` this doubles as the data-race check
// for the fast-path surfaces feeding the pooled fan-out.
func TestSecQueryFastPathEquivalence(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)

	type outcome struct {
		revealed []RevealedResult
		depth    int
		halted   bool
	}
	run := func(mode Mode, opts ...cloud.Option) outcome {
		t.Helper()
		server, err := cloud.NewServer(r.scheme.KeyMaterial(), nil, opts...)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		defer server.Close()
		client, err := cloud.NewClient(transport.NewLocal(server, transport.NewStats()),
			r.scheme.PublicKey(), nil, opts...)
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		defer client.Close()
		tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 3)
		if err != nil {
			t.Fatalf("Token: %v", err)
		}
		engine, err := NewEngine(client, er)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		res, err := engine.SecQuery(context.Background(), tk, Options{Mode: mode})
		if err != nil {
			t.Fatalf("SecQuery(%v): %v", mode, err)
		}
		rev, err := r.scheme.NewRevealer(er.N)
		if err != nil {
			t.Fatalf("NewRevealer: %v", err)
		}
		revealed, err := rev.RevealTopK(res.Items)
		if err != nil {
			t.Fatalf("RevealTopK: %v", err)
		}
		return outcome{revealed: revealed, depth: res.Depth, halted: res.Halted}
	}

	knobs := []struct {
		name string
		opts []cloud.Option
	}{
		{"crt", nil},
		{"fast", []cloud.Option{cloud.WithFastNonce(true)}},
	}
	for _, mode := range []Mode{QryF, QryE, QryBa} {
		base := run(mode, knobs[0].opts...)
		for _, k := range knobs[1:] {
			got := run(mode, k.opts...)
			if base.depth != got.depth || base.halted != got.halted {
				t.Errorf("%v: crt (depth=%d halted=%v) vs %s (depth=%d halted=%v)",
					mode, base.depth, base.halted, k.name, got.depth, got.halted)
			}
			if len(base.revealed) != len(got.revealed) {
				t.Fatalf("%v/%s: result sizes differ: %d vs %d", mode, k.name, len(base.revealed), len(got.revealed))
			}
			for i := range base.revealed {
				if base.revealed[i] != got.revealed[i] {
					t.Errorf("%v/%s: rank %d differs: crt %+v vs %+v",
						mode, k.name, i, base.revealed[i], got.revealed[i])
				}
			}
		}
	}
}

// TestFastNonceSchemeEncryption checks the owner-side FastNonce knob end
// to end: a relation encrypted through the fast-nonce table queries and
// reveals identically to the default (CRT) owner path.
func TestFastNonceSchemeEncryption(t *testing.T) {
	r := getRig(t)
	params := r.scheme.Params()
	params.FastNonce = true
	fastScheme, err := NewSchemeFromKeys(params, r.scheme.KeyMaterial())
	if err != nil {
		t.Fatalf("NewSchemeFromKeys: %v", err)
	}
	er, err := fastScheme.EncryptRelation(figure3())
	if err != nil {
		t.Fatalf("EncryptRelation: %v", err)
	}
	tk, err := fastScheme.Token(er, []int{0, 1, 2}, nil, 3)
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	engine, err := NewEngine(r.client, er)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE})
	if err != nil {
		t.Fatalf("SecQuery: %v", err)
	}
	rev, err := fastScheme.NewRevealer(er.N)
	if err != nil {
		t.Fatalf("NewRevealer: %v", err)
	}
	revealed, err := rev.RevealTopK(res.Items)
	if err != nil {
		t.Fatalf("RevealTopK: %v", err)
	}
	// Figure 3's ground-truth top-3 under sum scoring: X3(18), X2(16),
	// X1(15).
	wantObjs := map[int]int64{2: 18, 1: 16, 0: 15}
	if len(revealed) != 3 {
		t.Fatalf("got %d results, want 3", len(revealed))
	}
	for _, res := range revealed {
		want, ok := wantObjs[res.Obj]
		if !ok {
			t.Errorf("unexpected object %d in top-3", res.Obj)
			continue
		}
		if res.Worst != want {
			t.Errorf("object %d scored %d, want %d", res.Obj, res.Worst, want)
		}
	}
}
