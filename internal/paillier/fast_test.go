package paillier

import (
	"math/big"
	"testing"

	"repro/internal/zmath"
)

// The nonce producers themselves are tested once, in zmath
// (nonce_test.go). The tests here hold this package's wiring of them:
// every key derives its producer from N alone, a key holder's base has
// full order, and every surface the constructors build encrypts under
// the key it names.

// TestNoncePowerFromModulusAlone: a public key rebuilt from the bare
// modulus derives the key holder's base, the base has order λ (neither
// y^(λ/p') nor y^(λ/q') is 1), and every nonce power either draws is a
// unit whose order divides phi(N), a genuine N-th residue mod N^2 — the
// set the spec path draws from — and fresh.
func TestNoncePowerFromModulusAlone(t *testing.T) {
	sk := testKey(t)
	pk, err := NewPublicKeyFromN(sk.N)
	if err != nil {
		t.Fatal(err)
	}
	y := sk.nonce.Base()
	if pk.nonce.Base().Cmp(y) != 0 {
		t.Fatal("the key rebuilt from N derived another nonce base")
	}
	for _, e := range []*big.Int{sk.pOrder, sk.qOrder} {
		if new(big.Int).Exp(y, e, sk.N).Cmp(zmath.One) == 0 {
			t.Fatal("the nonce base has order below λ")
		}
	}
	phi := new(big.Int).Mul(sk.pOrder, sk.qOrder)
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		for _, src := range []NonceSource{&sk.PublicKey, pk} {
			x, err := src.NoncePower()
			if err != nil {
				t.Fatal(err)
			}
			if new(big.Int).GCD(nil, nil, x, sk.N2).Cmp(zmath.One) != 0 {
				t.Fatal("nonce power is not a unit")
			}
			if new(big.Int).Exp(x, phi, sk.N2).Cmp(zmath.One) != 0 {
				t.Fatal("nonce power is not an N-th residue")
			}
			if seen[x.String()] {
				t.Fatal("the same nonce power came out twice")
			}
			seen[x.String()] = true
		}
	}
}

// checkSurface holds one encryption surface to the Encryptor contract:
// it names sk's public key, its ciphertexts decrypt to the plaintext
// (negatives as residues), never repeat, compose homomorphically with
// spec-path ones — they live in the same group — and survive Rerandomize.
func checkSurface(t *testing.T, sk *PrivateKey, enc Encryptor) {
	t.Helper()
	if enc.Key() != &sk.PublicKey {
		t.Fatal("Key() should return the underlying public key")
	}
	seen := map[string]bool{}
	fresh := func(ct *Ciphertext, err error) *Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if seen[ct.C.String()] {
			t.Fatal("two ciphertexts share randomness")
		}
		seen[ct.C.String()] = true
		return ct
	}
	for _, m := range []int64{0, 1, 42, 1 << 40, -1, 42} {
		ct := fresh(enc.Encrypt(big.NewInt(m)))
		if got, err := sk.DecryptSigned(ct); err != nil || got.Int64() != m {
			t.Errorf("round trip %d -> %v (%v)", m, got, err)
		}
	}
	for i := 0; i < 2; i++ {
		if m, err := sk.Decrypt(fresh(enc.EncryptZero())); err != nil || m.Sign() != 0 {
			t.Fatalf("EncryptZero decrypts to %v (%v)", m, err)
		}
	}
	a := fresh(enc.Encrypt(big.NewInt(30)))
	sum, err := sk.Add(a, mustEncrypt(t, &sk.PublicKey, big.NewInt(12)))
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := sk.Decrypt(sum); m.Int64() != 42 {
		t.Errorf("homomorphic sum with a spec-path ciphertext = %v, want 42", m)
	}
	rr := fresh(enc.Rerandomize(a))
	if m, err := sk.Decrypt(rr); err != nil || m.Int64() != 30 {
		t.Errorf("rerandomized ciphertext decrypts to %v (%v)", m, err)
	}
}

// TestKeyEncryptsRoundTrip holds the bare key, the one producer's
// unpooled surface, to the Encryptor contract.
func TestKeyEncryptsRoundTrip(t *testing.T) {
	sk := testKey(t)
	checkSurface(t, sk, &sk.PublicKey)
	checkSurface(t, sk, NewNonceEncryptor(&sk.PublicKey, sk.NoncePower))
}

// TestNoncePool draws more encryptions than the pool holds, so some come
// from the buffer and some from the inline fallback of a drained pool.
func TestNoncePool(t *testing.T) {
	sk := testKey(t)
	pool := NewNoncePool(&sk.PublicKey, 2, 4)
	defer pool.Close()
	for i := 0; i < 3; i++ {
		checkSurface(t, sk, pool)
	}
}

func TestNoncePoolClosedFallback(t *testing.T) {
	sk := testKey(t)
	pool := NewNoncePool(&sk.PublicKey, 1, 2)
	pool.Close()
	checkSurface(t, sk, pool)
	pool.Close()
}

// TestNoncePoolOverFastSources checks the pool composes with every
// source: the key, an unpooled surface over it, and a pool.
func TestNoncePoolOverFastSources(t *testing.T) {
	sk := testKey(t)
	inner := NewNoncePool(&sk.PublicKey, 1, 4)
	defer inner.Close()
	for name, src := range map[string]NonceSource{
		"key":     &sk.PublicKey,
		"surface": NewNonceEncryptor(&sk.PublicKey, sk.NoncePower),
		"pool":    inner,
	} {
		t.Run(name, func(t *testing.T) {
			pool := NewNoncePool(src, 1, 8)
			defer pool.Close()
			checkSurface(t, sk, pool)
		})
	}
}
