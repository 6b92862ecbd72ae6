package cloud

import (
	"context"
	"errors"
	"math/big"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/paillier"
	"repro/internal/transport"
	"repro/internal/zmath"
)

// fastNonces reports whether every one of a few fresh encryptions of zero
// — each is its bare nonce power — is a quadratic residue modulo both
// primes. The fast-nonce table draws powers of a squared base, so all of
// its nonce powers are; a uniform nonce power (spec or CRT) is with
// probability 1/4, so twelve in a row slip through once in 16 million runs.
func fastNonces(t *testing.T, sk *paillier.PrivateKey, zero func() (*big.Int, error)) bool {
	t.Helper()
	for i := 0; i < 12; i++ {
		rn, err := zero()
		if err != nil {
			t.Fatalf("encrypting zero: %v", err)
		}
		if big.Jacobi(rn, sk.P) != 1 || big.Jacobi(rn, sk.Q) != 1 {
			return false
		}
	}
	return true
}

func paillierZero(enc paillier.Encryptor) func() (*big.Int, error) {
	return func() (*big.Int, error) {
		ct, err := enc.EncryptZero()
		if err != nil {
			return nil, err
		}
		return ct.C, nil
	}
}

// labelKey is a public key whose spec path, like the producers
// pickedProducer hands newEnc, draws a label as its nonce power: an
// encryption of zero is then the bare label, so one encryption reads off
// which producer newEnc picked, and the shared draw count shows whether a
// pool is prefetching behind it.
type labelKey struct {
	*paillier.PublicKey
	draws *atomic.Int64
}

const (
	specLabel = iota + 1
	crtLabel
	fastLabel
)

func (k labelKey) producer(label int64) func() (*big.Int, error) {
	return func() (*big.Int, error) {
		k.draws.Add(1)
		return big.NewInt(label), nil
	}
}

func (k labelKey) NoncePower() (*big.Int, error) { return k.producer(specLabel)() }

// pickedProducer runs newEnc for a party that does or does not hold the
// private key and returns the label of the producer its surface draws
// from, checking on the way that the surface is pooled exactly when pools
// are enabled (GOMAXPROCS above 1).
func pickedProducer(t *testing.T, cfg config, holdsKey bool) int64 {
	t.Helper()
	key := labelKey{PublicKey: &env(t).keys.Paillier.PublicKey, draws: new(atomic.Int64)}
	var crt func() *paillier.NonceEncryptor
	if holdsKey {
		crt = func() *paillier.NonceEncryptor {
			return zmath.NewNonceEncryptor(key.PublicKey, key.producer(crtLabel))
		}
	}
	enc, err := newEnc(cfg, key, crt, func(pk *paillier.PublicKey) (*paillier.NonceEncryptor, error) {
		return zmath.NewNonceEncryptor(pk, key.producer(fastLabel)), nil
	})
	if err != nil {
		t.Fatalf("newEnc: %v", err)
	}
	defer enc.Close()
	ct, err := enc.Encrypt(new(big.Int))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	// One encryption is one draw, unless pool fillers are running ahead.
	deadline := time.Now().Add(2 * time.Second)
	for poolsEnabled() && key.draws.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if prefetching := key.draws.Load() > 1; prefetching != poolsEnabled() {
		t.Errorf("%d draws for one encryption with pools enabled = %v", key.draws.Load(), poolsEnabled())
	}
	return ct.C.Int64()
}

// TestNonceKnobSurfaces pins which nonce producer each knob combination
// selects — the choice itself on newEnc with labelled producers, at one
// core (pools off) and at eight (pools on), its effect on a real server's
// surface — and that every combination still produces ciphertexts the
// key holder can decrypt.
func TestNonceKnobSurfaces(t *testing.T) {
	e := env(t)
	keys := e.keys
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	cases := []struct {
		name string
		opts []Option
		// withKey and withoutKey are the producers picked for a party that
		// does and does not hold the private key.
		withKey, withoutKey int64
	}{
		{"default-crt", nil, crtLabel, specLabel},
		{"fast", []Option{WithFastNonce(true)}, fastLabel, fastLabel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := buildConfig(tc.opts)
			for _, procs := range []int{1, 8} {
				runtime.GOMAXPROCS(procs)
				if poolsEnabled() != (procs > 1) {
					t.Errorf("GOMAXPROCS %d: pools enabled = %v", procs, poolsEnabled())
				}
				if got := pickedProducer(t, cfg, true); got != tc.withKey {
					t.Errorf("GOMAXPROCS %d, key held: picked producer %d, want %d", procs, got, tc.withKey)
				}
				if got := pickedProducer(t, cfg, false); got != tc.withoutKey {
					t.Errorf("GOMAXPROCS %d, no key: picked producer %d, want %d", procs, got, tc.withoutKey)
				}
			}
			runtime.GOMAXPROCS(1) // a server without pools: its surfaces draw inline
			srv, err := NewServer(keys, nil, tc.opts...)
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			defer srv.Close()
			wantFast := tc.withKey == fastLabel
			if got := fastNonces(t, keys.Paillier, paillierZero(srv.pkEnc)); got != wantFast {
				t.Errorf("pkEnc draws fast nonces = %v, want %v", got, wantFast)
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
	t.Run("fast-error", func(t *testing.T) {
		boom := errors.New("boom")
		enc, err := newEnc(buildConfig([]Option{WithFastNonce(true)}), &e.keys.Paillier.PublicKey, nil,
			func(*paillier.PublicKey) (*paillier.NonceEncryptor, error) { return nil, boom })
		if !errors.Is(err, boom) || enc != nil {
			t.Errorf("newEnc = %v, %v; want no surface and the table's error", enc, err)
		}
	})
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
	// The client's main surface must draw its nonces from the fast table
	// (behind a pool where pools run, GOMAXPROCS > 1); the ephemeral
	// surface (private key held) follows the fast knob too.
	if !fastNonces(t, e.keys.Paillier, paillierZero(client.Enc())) {
		t.Error("client Enc does not draw its nonces from the fast table")
	}
	if !fastNonces(t, client.eph, paillierZero(client.EphEnc())) {
		t.Error("client EphEnc does not draw its nonces from the fast table")
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
