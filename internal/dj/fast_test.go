package dj

import (
	"crypto/rand"
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

// TestDJCRTNoncePowerMatchesSpec pins the CRT nonce split against the
// spec-path exponentiation on fixed nonces.
func TestDJCRTNoncePowerMatchesSpec(t *testing.T) {
	_, sk := keys(t)
	enc := sk.CRTEncryptor()
	for i := 0; i < 10; i++ {
		r, err := zmath.RandUnit(rand.Reader, sk.N)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Exp(r, sk.NS, sk.NS1)
		if got := enc.noncePowerOf(r); got.Cmp(want) != 0 {
			t.Fatalf("CRT nonce power differs from spec for r=%v", r)
		}
	}
}

// TestDJCRTNoncePowerIsResidue pins the distribution invariant of the
// direct subgroup sampler: every drawn nonce power is a unit of order
// dividing phi(N) — a genuine N^s-th residue mod N^{s+1}.
func TestDJCRTNoncePowerIsResidue(t *testing.T) {
	pail, sk := keys(t)
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
}

// TestDJCRTEncryptorRoundTrip checks CRT-path DJ ciphertexts decrypt to
// the plaintext, remain probabilistic, and interoperate with the layered
// EncryptInner/DecryptInner trick.
func TestDJCRTEncryptorRoundTrip(t *testing.T) {
	pail, sk := keys(t)
	enc := sk.CRTEncryptor()
	m := new(big.Int).Lsh(zmath.One, 300) // needs the full Z_{N^2} range
	c1, err := enc.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := enc.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	if c1.C.Cmp(c2.C) == 0 {
		t.Error("CRT DJ encryption is deterministic")
	}
	got, err := sk.Decrypt(c1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Errorf("round trip mismatch: %v != %v", got, m)
	}
	rr, err := enc.Rerandomize(c1)
	if err != nil {
		t.Fatal(err)
	}
	if rr.C.Cmp(c1.C) == 0 {
		t.Error("Rerandomize returned the same ciphertext")
	}
	// Layered: E2(Enc(x)) -> Enc(x) through the CRT surface.
	inner, err := pail.PublicKey.EncryptInt64(77)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := enc.EncryptInner(inner)
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
}

// TestDJFastEncryptorRoundTrip checks fast-nonce DJ ciphertexts decrypt
// correctly and remain probabilistic.
func TestDJFastEncryptorRoundTrip(t *testing.T) {
	_, sk := keys(t)
	enc, err := NewFastEncryptor(&sk.PublicKey, 0)
	if err != nil {
		t.Fatalf("NewFastEncryptor: %v", err)
	}
	for _, m := range []int64{0, 1, 424242} {
		c1, err := enc.Encrypt(big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		c2, err := enc.Encrypt(big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		if c1.C.Cmp(c2.C) == 0 {
			t.Errorf("fast DJ encryption of %d is deterministic", m)
		}
		got, err := sk.Decrypt(c1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Errorf("round trip %d -> %v", m, got)
		}
	}
	if _, err := NewFastEncryptor(&sk.PublicKey, 64); err == nil {
		t.Error("expected error for a 64-bit short exponent")
	}
}

// TestDJNoncePoolOverFastSources checks the generalized pool composes
// with all three DJ nonce sources.
func TestDJNoncePoolOverFastSources(t *testing.T) {
	_, sk := keys(t)
	fast, err := NewFastEncryptor(&sk.PublicKey, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]NonceSource{
		"spec": &sk.PublicKey,
		"crt":  sk.CRTEncryptor(),
		"fast": fast,
	} {
		pool := NewNoncePool(src, 1, 4)
		for i := 0; i < 6; i++ {
			ct, err := pool.Encrypt(big.NewInt(int64(i)))
			if err != nil {
				t.Fatalf("%s pooled Encrypt: %v", name, err)
			}
			m, err := sk.Decrypt(ct)
			if err != nil || m.Int64() != int64(i) {
				t.Fatalf("%s pooled round trip %d -> %v (%v)", name, i, m, err)
			}
		}
		pool.Close()
	}
}

// TestDJFastSourcesSatisfyEncryptor pins the interface contracts at
// compile time.
var (
	_ Encryptor            = (*CRTEncryptor)(nil)
	_ Encryptor            = (*FastEncryptor)(nil)
	_ NonceSource          = (*NoncePool)(nil)
	_ paillier.NonceSource = (*paillier.NoncePool)(nil)
)
