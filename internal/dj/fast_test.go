package dj

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/paillier"
	"repro/internal/zmath"
)

// referenceDecrypt is textbook Damgård-Jurik decryption in math/big alone:
// raise to d (d = 1 mod N^s, d = 0 mod lambda) over the full modulus, then
// run the paper's Section 4.2 extraction on (1+N)^m mod N^{s+1}.
func referenceDecrypt(pail *paillier.PrivateKey, s int, c *big.Int) (*big.Int, bool) {
	nPow := []*big.Int{big.NewInt(1)}
	for j := 1; j <= s+1; j++ {
		nPow = append(nPow, new(big.Int).Mul(nPow[j-1], pail.N))
	}
	ns, ns1 := nPow[s], nPow[s+1]
	d := new(big.Int).ModInverse(pail.Lambda, ns)
	d.Mul(d, pail.Lambda)
	a := new(big.Int).Exp(c, d, ns1)
	i := new(big.Int)
	for j := 1; j <= s; j++ {
		t1 := new(big.Int).Mod(a, nPow[j+1])
		t1.Sub(t1, zmath.One)
		if new(big.Int).Mod(t1, pail.N).Sign() != 0 {
			return nil, false
		}
		t1.Div(t1, pail.N)
		t2 := new(big.Int).Set(i)
		for k := 2; k <= j; k++ {
			i.Sub(i, zmath.One)
			t2.Mul(t2, i)
			t2.Mod(t2, nPow[j])
			term := new(big.Int).ModInverse(zmath.Factorial(k), nPow[j])
			term.Mul(term, t2)
			term.Mul(term, nPow[k-1])
			t1.Sub(t1, term)
			t1.Mod(t1, nPow[j])
		}
		i.Mod(t1, nPow[j])
	}
	return i, true
}

// TestDecryptMatchesReference holds the per-prime Decrypt to the textbook
// one for s = 1, 2, 3 on the edge plaintexts, random ones and (where it
// fits) a first-layer ciphertext, and checks that an input no encryption
// can produce earns an error from both, never a panic.
func TestDecryptMatchesReference(t *testing.T) {
	pail, _ := keys(t)
	inner, err := pail.EncryptInt64(77)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= 3; s++ {
		sk, err := NewPrivateKey(pail, s)
		if err != nil {
			t.Fatal(err)
		}
		ms := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(sk.NS, zmath.One)}
		for i := 0; i < 4; i++ {
			m, err := zmath.RandInt(rand.Reader, sk.NS)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
		if s >= 2 {
			ms = append(ms, inner.C)
		}
		for _, m := range ms {
			ct, err := sk.Encrypt(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatalf("s=%d: Decrypt: %v", s, err)
			}
			want, ok := referenceDecrypt(pail, s, ct.C)
			if !ok || want.Cmp(m) != 0 {
				t.Fatalf("s=%d: the reference itself does not decrypt %v", s, m)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("s=%d: Decrypt = %v, reference %v", s, got, want)
			}
		}
		// Multiples of a prime factor are not units: no power of them is
		// 1 mod N, so neither extraction has a (1+N)-power to read.
		for _, bad := range []*big.Int{pail.P, pail.Q, sk.N, new(big.Int).Mul(pail.P, big.NewInt(6))} {
			if _, ok := referenceDecrypt(pail, s, bad); ok {
				t.Fatalf("s=%d: the reference accepted %v", s, bad)
			}
			if m, err := sk.Decrypt(&Ciphertext{C: bad}); err == nil {
				t.Fatalf("s=%d: Decrypt(%v) = %v, want an error", s, bad, m)
			}
		}
	}
}

// The nonce producers themselves are tested once, for s = 1 and s = 2, in
// zmath (nonce_test.go). The tests below hold this package's wiring of
// them at both degrees — s = 1 is plain Paillier, s = 2 the outer layer
// SecTopK uses — through the same table.

// atDegrees runs fn against the shared test modulus at s = 1 and s = 2.
func atDegrees(t *testing.T, fn func(t *testing.T, pail *paillier.PrivateKey, sk *PrivateKey)) {
	pail, sk2 := keys(t)
	sk1, err := NewPrivateKey(pail, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []*PrivateKey{sk1, sk2} {
		t.Run(fmt.Sprintf("s=%d", sk.S), func(t *testing.T) { fn(t, pail, sk) })
	}
}

// TestDJCRTNoncePowerMatchesSpec pins the CRT split this key builds, bit
// for bit on fixed nonces, to EncryptWithNonce's own r^{N^s} mod N^{s+1}
// (an encryption of zero is its bare nonce power).
func TestDJCRTNoncePowerMatchesSpec(t *testing.T) {
	atDegrees(t, func(t *testing.T, _ *paillier.PrivateKey, sk *PrivateKey) {
		crt := sk.crtNonce()
		for i := 0; i < 10; i++ {
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
	})
}

// TestDJCRTNoncePowerIsResidue pins the distribution invariant of the
// direct subgroup sampler: every drawn nonce power is a unit of order
// dividing phi(N) — a genuine N^s-th residue mod N^{s+1}.
func TestDJCRTNoncePowerIsResidue(t *testing.T) {
	atDegrees(t, func(t *testing.T, pail *paillier.PrivateKey, sk *PrivateKey) {
		enc := sk.CRTEncryptor()
		phi := new(big.Int).Mul(
			new(big.Int).Sub(pail.P, zmath.One), new(big.Int).Sub(pail.Q, zmath.One))
		gcd := new(big.Int)
		for i := 0; i < 5; i++ {
			x, err := enc.NoncePower()
			if err != nil {
				t.Fatal(err)
			}
			if gcd.GCD(nil, nil, x, sk.NS1); gcd.Cmp(zmath.One) != 0 {
				t.Fatal("nonce power is not a unit")
			}
			if new(big.Int).Exp(x, phi, sk.NS1).Cmp(zmath.One) != 0 {
				t.Fatal("nonce power is not an N^s-th residue")
			}
		}
	})
}

// checkSurface holds one encryption surface to the surface contract:
// it names sk's public key, its ciphertexts decrypt to the plaintext over
// the full Z_{N^s} range, never repeat, compose homomorphically with
// spec-path ones and survive Rerandomize.
func checkSurface(t *testing.T, sk *PrivateKey, enc *NonceEncryptor) {
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
	top := new(big.Int).Sub(sk.NS, zmath.One)
	for _, m := range []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(424242), top, top} {
		ct := fresh(enc.Encrypt(m))
		if got, err := sk.Decrypt(ct); err != nil || got.Cmp(m) != 0 {
			t.Errorf("round trip %v -> %v (%v)", m, got, err)
		}
	}
	a := fresh(enc.Encrypt(big.NewInt(30)))
	b, err := sk.PublicKey.Encrypt(big.NewInt(12))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sk.Add(a, b)
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

// TestDJCRTEncryptorRoundTrip also takes the CRT surface through the
// layered trick at s = 2: E2(Enc(x)) -> Enc(x).
func TestDJCRTEncryptorRoundTrip(t *testing.T) {
	atDegrees(t, func(t *testing.T, pail *paillier.PrivateKey, sk *PrivateKey) {
		enc := sk.CRTEncryptor()
		checkSurface(t, sk, enc)
		if sk.S < 2 {
			return
		}
		inner, err := pail.EncryptInt64(77)
		if err != nil {
			t.Fatal(err)
		}
		outer, err := enc.Encrypt(inner.C)
		if err != nil {
			t.Fatal(err)
		}
		back, err := sk.DecryptInner(outer)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := pail.Decrypt(back); err != nil || v.Int64() != 77 {
			t.Fatalf("layered round trip -> %v (%v)", v, err)
		}
	})
}

func TestDJFastEncryptorRoundTrip(t *testing.T) {
	atDegrees(t, func(t *testing.T, _ *paillier.PrivateKey, sk *PrivateKey) {
		enc, err := NewFastEncryptor(&sk.PublicKey)
		if err != nil {
			t.Fatalf("NewFastEncryptor: %v", err)
		}
		checkSurface(t, sk, enc)
	})
}

// TestNoncePool draws more encryptions than the pool holds, so some come
// from the buffer and some from the inline fallback of a drained pool;
// a closed pool has only the fallback.
func TestNoncePool(t *testing.T) {
	atDegrees(t, func(t *testing.T, _ *paillier.PrivateKey, sk *PrivateKey) {
		pool := NewNoncePool(&sk.PublicKey, 2, 4)
		for i := 0; i < 2; i++ {
			checkSurface(t, sk, pool)
		}
		pool.Close()
		checkSurface(t, sk, pool)
	})
}

// TestDJNoncePoolOverFastSources checks the pool composes with every
// producer, a pool included.
func TestDJNoncePoolOverFastSources(t *testing.T) {
	atDegrees(t, func(t *testing.T, _ *paillier.PrivateKey, sk *PrivateKey) {
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
				pool := NewNoncePool(src, 1, 4)
				defer pool.Close()
				checkSurface(t, sk, pool)
			})
		}
	})
}
