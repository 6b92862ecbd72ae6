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
// zmath (nonce_test.go). The test below holds this key's factors to the
// CRT split at both degrees — s = 1 is plain Paillier, s = 2 the outer
// layer SecTopK uses.

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

// TestDJCRTNoncePowerMatchesSpec pins the CRT split over this key's
// factors, bit for bit on fixed nonces, to EncryptWithNonce's own
// r^{N^s} mod N^{s+1} (an encryption of zero is its bare nonce power).
func TestDJCRTNoncePowerMatchesSpec(t *testing.T) {
	atDegrees(t, func(t *testing.T, _ *paillier.PrivateKey, sk *PrivateKey) {
		p, q := sk.halfP.pow, sk.halfQ.pow
		inv, err := zmath.ModInverse(p[sk.S+1], q[sk.S+1])
		if err != nil {
			t.Fatal(err)
		}
		crt := zmath.NewCRTNonce(p[1], q[1], inv, sk.S)
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
