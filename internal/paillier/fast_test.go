package paillier

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/zmath"
)

// The nonce producers themselves are tested once, for s = 1 and s = 2, in
// zmath (nonce_test.go). The tests here hold this package's wiring of
// them: the right key parts reach zmath, and every surface the
// constructors build encrypts under the key it names.

// TestCRTNoncePowerMatchesSpec pins the CRT split this key builds, bit
// for bit on fixed nonces, to EncryptWithNonce's own r^N mod N^2 (an
// encryption of zero is its bare nonce power).
func TestCRTNoncePowerMatchesSpec(t *testing.T) {
	sk := testKey(t)
	crt := sk.crtNonce()
	for i := 0; i < 25; i++ {
		r, err := zmath.RandUnit(rand.Reader, sk.N)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sk.EncryptWithNonce(zmath.Zero, r)
		if err != nil {
			t.Fatal(err)
		}
		if got := crt.PowerOf(r); got.Cmp(want.C) != 0 {
			t.Fatalf("CRT nonce power differs from spec for r=%v", r)
		}
		ct, err := sk.EncryptWithNonce(big.NewInt(int64(i)), r)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := sk.Decrypt(ct); err != nil || m.Int64() != int64(i) {
			t.Fatalf("EncryptWithNonce(%d) decrypts to %v (%v)", i, m, err)
		}
	}
}

// TestCRTNoncePowerIsNthResidue pins the distribution invariant of the
// direct subgroup sampler: every drawn nonce power is a unit whose order
// divides phi(N), i.e. a genuine N-th residue mod N^2 — exactly the set
// the spec path draws from.
func TestCRTNoncePowerIsNthResidue(t *testing.T) {
	sk := testKey(t)
	enc := sk.CRTEncryptor()
	phi := new(big.Int).Mul(new(big.Int).Sub(sk.P, zmath.One), new(big.Int).Sub(sk.Q, zmath.One))
	gcd := new(big.Int)
	for i := 0; i < 10; i++ {
		x, err := enc.NoncePower()
		if err != nil {
			t.Fatal(err)
		}
		if gcd.GCD(nil, nil, x, sk.N2); gcd.Cmp(zmath.One) != 0 {
			t.Fatal("nonce power is not a unit")
		}
		if new(big.Int).Exp(x, phi, sk.N2).Cmp(zmath.One) != 0 {
			t.Fatal("nonce power is not an N-th residue")
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

func TestCRTEncryptorRoundTrip(t *testing.T) {
	sk := testKey(t)
	checkSurface(t, sk, sk.CRTEncryptor())
}

func TestFastEncryptorRoundTrip(t *testing.T) {
	sk := testKey(t)
	enc, err := NewFastEncryptor(&sk.PublicKey)
	if err != nil {
		t.Fatalf("NewFastEncryptor: %v", err)
	}
	checkSurface(t, sk, enc)
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
// producer, a pool included.
func TestNoncePoolOverFastSources(t *testing.T) {
	sk := testKey(t)
	fast, err := NewFastEncryptor(&sk.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewNoncePool(&sk.PublicKey, 1, 4)
	defer inner.Close()
	for name, src := range map[string]NonceSource{
		"spec": &sk.PublicKey,
		"crt":  sk.CRTEncryptor(),
		"fast": fast,
		"pool": inner,
	} {
		t.Run(name, func(t *testing.T) {
			pool := NewNoncePool(src, 1, 8)
			defer pool.Close()
			checkSurface(t, sk, pool)
		})
	}
}
