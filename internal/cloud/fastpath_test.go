package cloud

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/dj"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// TestNonceKnobSurfaces pins which encryption surface each knob
// combination selects, and that every combination still produces
// ciphertexts the key holder can decrypt.
func TestNonceKnobSurfaces(t *testing.T) {
	e := env(t)
	keys := e.keys

	cases := []struct {
		name string
		opts []Option
		// wantPK is the expected dynamic type of the server's Paillier
		// surface at parallelism 1 (no pool wrapping).
		wantPK interface{}
	}{
		{"default-crt", []Option{WithParallelism(1)}, (*paillier.CRTEncryptor)(nil)},
		{"fast", []Option{WithParallelism(1), WithFastNonce(true)}, (*paillier.FastEncryptor)(nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(keys, nil, tc.opts...)
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			defer srv.Close()
			switch tc.wantPK.(type) {
			case *paillier.CRTEncryptor:
				if _, ok := srv.pkEnc.(*paillier.CRTEncryptor); !ok {
					t.Errorf("pkEnc is %T, want *paillier.CRTEncryptor", srv.pkEnc)
				}
				if _, ok := srv.djEnc.(*dj.CRTEncryptor); !ok {
					t.Errorf("djEnc is %T, want *dj.CRTEncryptor", srv.djEnc)
				}
			case *paillier.FastEncryptor:
				if _, ok := srv.pkEnc.(*paillier.FastEncryptor); !ok {
					t.Errorf("pkEnc is %T, want *paillier.FastEncryptor", srv.pkEnc)
				}
				if _, ok := srv.djEnc.(*dj.FastEncryptor); !ok {
					t.Errorf("djEnc is %T, want *dj.FastEncryptor", srv.djEnc)
				}
			}
			ct, err := srv.pkEnc.Encrypt(big.NewInt(99))
			if err != nil {
				t.Fatalf("Encrypt: %v", err)
			}
			if m, err := keys.Paillier.Decrypt(ct); err != nil || m.Int64() != 99 {
				t.Fatalf("round trip -> %v (%v)", m, err)
			}
		})
	}
}

// TestClientFastNonceRound drives a real protocol exchange with the
// fast-nonce knob on at both parties; the recovered plaintext must be
// unaffected.
func TestClientFastNonceRound(t *testing.T) {
	e := env(t)
	srv, err := NewServer(e.keys, nil, WithFastNonce(true))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	client, err := NewClient(transport.NewLocal(srv, nil), &e.keys.Paillier.PublicKey, nil,
		WithFastNonce(true))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()
	// The client's main surface must draw its nonces from the fast table;
	// the ephemeral surface (private key held) follows the fast knob too.
	// Where pools run (GOMAXPROCS > 1) the table sits behind a NoncePool.
	for name, enc := range map[string]paillier.Encryptor{"Enc": client.Enc(), "EphEnc": client.EphEnc()} {
		var src interface{} = enc
		if pool, ok := enc.(*paillier.NoncePool); ok {
			src = pool.Source()
		}
		if _, ok := src.(*paillier.FastEncryptor); !ok {
			t.Errorf("client %s draws nonces from %T, want *paillier.FastEncryptor", name, src)
		}
	}
	// Round trip through S2's CompareSigns: blind a difference with a
	// fast-nonce rerandomization and check the sign survives.
	a, err := client.Enc().Encrypt(big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Enc().Encrypt(big.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	diff, err := client.PK().Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	neg, err := client.CompareSigns(context.Background(), []*paillier.Ciphertext{diff})
	if err != nil {
		t.Fatalf("CompareSigns: %v", err)
	}
	if len(neg) != 1 || !neg[0] {
		t.Fatalf("5 - 9 should compare negative, got %v", neg)
	}
}
