// Package dj implements the Damgård-Jurik generalization of the Paillier
// cryptosystem (PKC 2001). For a degree parameter s >= 1, plaintexts live
// in Z_{N^s} and ciphertexts in Z*_{N^{s+1}}; s = 1 recovers plain
// Paillier.
//
// The paper's double-layer trick (Section 3.3) uses s = 2: a first-layer
// Paillier ciphertext c = Enc(m) in Z_{N^2} is a valid *plaintext* for
// the s = 2 scheme, and
//
//	E2(Enc(m1))^{Enc(m2)} = E2(Enc(m1) * Enc(m2) mod N^2) = E2(Enc(m1+m2))
//
// is ExpCipher below. The query path no longer uses the scheme: every
// hidden bit goes through a Paillier gadget (protocols.ApplyBits). The
// package stays only for the benchmark's DJ kernel rows, through
// cloud.KeyMaterial.DJ.
package dj

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/paillier"
	"repro/internal/zmath"
)

var (
	// ErrMessageRange is returned when a plaintext is outside [0, N^s).
	ErrMessageRange = errors.New("dj: message outside [0, N^s)")
	// ErrCiphertextRange is returned for ciphertexts outside (0, N^{s+1}).
	ErrCiphertextRange = errors.New("dj: invalid ciphertext")
	// ErrDegree is returned for an unsupported degree parameter.
	ErrDegree = errors.New("dj: degree s must be >= 1")
)

// PublicKey is the Damgård-Jurik public key: the Paillier modulus N plus
// the degree s and cached powers of N.
type PublicKey struct {
	N *big.Int
	S int

	NS  *big.Int // N^s, the plaintext modulus
	NS1 *big.Int // N^{s+1}, the ciphertext modulus
	// nPow[i] = N^i for i in [0, s+1]; shared by the decrypt extraction.
	nPow []*big.Int

	// engNS1 is the reduction engine for the ciphertext modulus N^{s+1},
	// precomputed by NewPublicKey.
	engNS1 *zmath.Modulus
}

// mulNS1 multiplies mod N^{s+1} through the engine.
func (pk *PublicKey) mulNS1(a, b *big.Int) *big.Int { return pk.engNS1.MulMod(a, b) }

// PrivateKey carries the factorization N = p*q and what decryption derives
// from it. There is no decryption exponent d: Decrypt works modulo each
// prime power separately, where the exponent p-1 does what d mod p^s(p-1)
// would at a third of the width (for s = 2).
type PrivateKey struct {
	PublicKey

	halfP, halfQ primeHalf
	psInvModQs   *big.Int // p^s^{-1} mod q^s, recombines the two halves
}

// primeHalf is what Decrypt needs modulo one prime factor p of N.
type primeHalf struct {
	pm1     *big.Int   // p-1, the decryption exponent
	pow     []*big.Int // pow[j] = p^j for j in [0, s+1]
	cofInv  *big.Int   // (N/p)^{-1} mod p^s
	factInv []*big.Int // factInv[k] = (k!)^{-1} mod p^s for k in [0, s]
	pm1Inv  *big.Int   // (p-1)^{-1} mod p^s
}

// Ciphertext is a DJ ciphertext: an element of Z*_{N^{s+1}}.
type Ciphertext struct {
	C *big.Int
}

// NewPublicKey derives the DJ public key of degree s from a Paillier
// public key (same modulus N).
func NewPublicKey(pk *paillier.PublicKey, s int) (*PublicKey, error) {
	if s < 1 {
		return nil, ErrDegree
	}
	out := &PublicKey{N: new(big.Int).Set(pk.N), S: s}
	out.nPow = make([]*big.Int, s+2)
	out.nPow[0] = big.NewInt(1)
	for i := 1; i <= s+1; i++ {
		out.nPow[i] = new(big.Int).Mul(out.nPow[i-1], out.N)
	}
	out.NS = out.nPow[s]
	out.NS1 = out.nPow[s+1]
	// N is odd for every Paillier key a constructor builds, hence so is
	// N^{s+1}.
	out.engNS1 = zmath.MustModulus(out.NS1)
	return out, nil
}

// NewPrivateKey derives the DJ private key of degree s from a Paillier
// private key (shared factorization), as the paper's single data-owner key
// setup does.
func NewPrivateKey(sk *paillier.PrivateKey, s int) (*PrivateKey, error) {
	pub, err := NewPublicKey(&sk.PublicKey, s)
	if err != nil {
		return nil, err
	}
	out := &PrivateKey{PublicKey: *pub}
	if out.halfP, err = newPrimeHalf(sk.P, sk.Q, s); err != nil {
		return nil, err
	}
	if out.halfQ, err = newPrimeHalf(sk.Q, sk.P, s); err != nil {
		return nil, err
	}
	if out.psInvModQs, err = zmath.ModInverse(out.halfP.pow[s], out.halfQ.pow[s]); err != nil {
		return nil, fmt.Errorf("dj: p^s not invertible mod q^s: %w", err)
	}
	return out, nil
}

// newPrimeHalf precomputes the decryption half for the factor p of N = p*cof.
func newPrimeHalf(p, cof *big.Int, s int) (primeHalf, error) {
	h := primeHalf{pm1: new(big.Int).Sub(p, zmath.One), pow: make([]*big.Int, s+2), factInv: make([]*big.Int, s+1)}
	h.pow[0] = big.NewInt(1)
	for j := 1; j <= s+1; j++ {
		h.pow[j] = new(big.Int).Mul(h.pow[j-1], p)
	}
	ps := h.pow[s]
	var err error
	if h.cofInv, err = zmath.ModInverse(cof, ps); err != nil {
		return h, fmt.Errorf("dj: cofactor not invertible mod p^s: %w", err)
	}
	if h.pm1Inv, err = zmath.ModInverse(h.pm1, ps); err != nil {
		return h, fmt.Errorf("dj: p-1 not invertible mod p^s: %w", err)
	}
	for k := 0; k <= s; k++ {
		if h.factInv[k], err = zmath.ModInverse(zmath.Factorial(k), ps); err != nil {
			return h, fmt.Errorf("dj: %d! not invertible mod p^s: %w", k, err)
		}
	}
	return h, nil
}

func (pk *PublicKey) validateMessage(m *big.Int) (*big.Int, error) {
	if m == nil {
		return nil, ErrMessageRange
	}
	return new(big.Int).Mod(m, pk.NS), nil
}

func (pk *PublicKey) validateCiphertext(c *Ciphertext) error {
	if c == nil || c.C == nil || c.C.Sign() <= 0 || c.C.Cmp(pk.NS1) >= 0 {
		return ErrCiphertextRange
	}
	return nil
}

// Encrypt encrypts m in Z_{N^s}: c = (1+N)^m * r^{N^s} mod N^{s+1}.
func (pk *PublicKey) Encrypt(m *big.Int) (*Ciphertext, error) {
	rn, err := pk.NoncePower()
	if err != nil {
		return nil, err
	}
	return pk.EncryptWithPower(m, rn)
}

// NoncePower samples a fresh r in Z*_N and returns r^{N^s} mod N^{s+1} —
// the spec path, one full-width exponentiation per nonce.
func (pk *PublicKey) NoncePower() (*big.Int, error) {
	return zmath.SpecNoncePower(pk.N, pk.NS, pk.NS1)
}

// EncryptWithPower assembles E(m) = (1+N)^m * rn mod N^{s+1} from a nonce
// power rn = r^{N^s} mod N^{s+1}. Every encryption ends here; rn comes
// from NoncePower (or, in EncryptWithNonce, from the caller's r).
func (pk *PublicKey) EncryptWithPower(m, rn *big.Int) (*Ciphertext, error) {
	mm, err := pk.validateMessage(m)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{C: pk.mulNS1(pk.expOnePlusN(mm), rn)}, nil
}

// EncryptWithNonce encrypts m with caller-provided nonce r in Z*_N.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	if r == nil || r.Sign() <= 0 || r.Cmp(pk.N) >= 0 {
		return nil, errors.New("dj: nonce outside (0, N)")
	}
	return pk.EncryptWithPower(m, new(big.Int).Exp(r, pk.NS, pk.NS1))
}

// EncryptInt64 is a convenience wrapper around Encrypt.
func (pk *PublicKey) EncryptInt64(m int64) (*Ciphertext, error) {
	return pk.Encrypt(big.NewInt(m))
}

// EncryptInner encrypts a first-layer Paillier ciphertext under the outer
// DJ layer, i.e. builds E2(Enc(m)). Requires s >= 2 so the inner
// ciphertext fits the plaintext space.
func (pk *PublicKey) EncryptInner(inner *paillier.Ciphertext) (*Ciphertext, error) {
	if pk.S < 2 {
		return nil, fmt.Errorf("dj: EncryptInner needs s >= 2, have s = %d", pk.S)
	}
	if inner == nil || inner.C == nil {
		return nil, ErrMessageRange
	}
	return pk.Encrypt(inner.C)
}

// expOnePlusN computes (1+N)^m mod N^{s+1} via the binomial expansion:
// (1+N)^m = sum_{k=0..s} C(m,k) N^k mod N^{s+1}. The running term
// C(m,k)*N^k is kept as an exact integer so the incremental division by k
// stays exact (C(m,k-1)*(m-k+1) is always divisible by k); the sizes stay
// small because s is tiny (2 in SecTopK).
func (pk *PublicKey) expOnePlusN(m *big.Int) *big.Int {
	out := big.NewInt(1)
	term := big.NewInt(1) // C(m, k) * N^k, built incrementally, exact
	mk := new(big.Int)
	for k := 1; k <= pk.S; k++ {
		// term *= (m - k + 1) * N / k, exact integer division
		mk.Sub(m, big.NewInt(int64(k-1)))
		term.Mul(term, mk)
		term.Mul(term, pk.N)
		term.Div(term, big.NewInt(int64(k)))
		out.Add(out, term)
	}
	out.Mod(out, pk.NS1)
	return out
}

// Decrypt recovers m in [0, N^s): m mod p^s and m mod q^s from the two
// prime halves, recombined by CRT.
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	if err := sk.validateCiphertext(c); err != nil {
		return nil, err
	}
	mp, err := sk.halfP.residue(&sk.PublicKey, c.C)
	if err != nil {
		return nil, err
	}
	mq, err := sk.halfQ.residue(&sk.PublicKey, c.C)
	if err != nil {
		return nil, err
	}
	return zmath.CRTPair(mp, mq, sk.halfP.pow[sk.S], sk.halfQ.pow[sk.S], sk.psInvModQs), nil
}

// DecryptInner decrypts the outer DJ layer and reinterprets the plaintext
// as a first-layer Paillier ciphertext, i.e. E2(Enc(m)) -> Enc(m).
func (sk *PrivateKey) DecryptInner(c *Ciphertext) (*paillier.Ciphertext, error) {
	if sk.S < 2 {
		return nil, fmt.Errorf("dj: DecryptInner needs s >= 2, have s = %d", sk.S)
	}
	m, err := sk.Decrypt(c)
	if err != nil {
		return nil, err
	}
	return &paillier.Ciphertext{C: m}, nil
}

// residue returns m mod p^s for c = (1+N)^m * r^{N^s}. Modulo p^{s+1} the
// nonce part r^{N^s} has order dividing p-1, so a = c^{p-1} mod p^{s+1} is
// (1+N)^{m(p-1)}; the iterative algorithm of the Damgård-Jurik paper
// (Section 4.2) then recovers i = m(p-1) mod p^j for j = 1..s by peeling
// binomial terms, with the one change working modulo a prime power needs:
// (a mod p^{j+1} - 1)/p still carries a factor q^k on the k-th term, which
// the cofactor's inverse takes back to the N^{k-1} the peel expects.
func (h *primeHalf) residue(pk *PublicKey, c *big.Int) (*big.Int, error) {
	p, ps1 := h.pow[1], h.pow[pk.S+1]
	a := new(big.Int).Mod(c, ps1)
	a.Exp(a, h.pm1, ps1)
	i := new(big.Int)
	t1 := new(big.Int)
	t2 := new(big.Int)
	tmp := new(big.Int)
	for j := 1; j <= pk.S; j++ {
		pj := h.pow[j]
		// t1 = L_p(a mod p^{j+1}) * q^{-1} mod p^j
		t1.Mod(a, h.pow[j+1])
		t1.Sub(t1, zmath.One)
		if tmp.Mod(t1, p).Sign() != 0 {
			return nil, errors.New("dj: ciphertext is not a valid (1+N)-power")
		}
		t1.Div(t1, p)
		t1.Mul(t1, h.cofInv)
		t1.Mod(t1, pj)
		t2.Set(i)
		for k := 2; k <= j; k++ {
			i.Sub(i, zmath.One)
			t2.Mul(t2, i)
			t2.Mod(t2, pj)
			// t1 -= t2 * N^{k-1} / k!
			tmp.Mul(t2, pk.nPow[k-1])
			tmp.Mul(tmp, h.factInv[k])
			t1.Sub(t1, tmp)
			t1.Mod(t1, pj)
		}
		i.Set(t1)
	}
	i.Mul(i, h.pm1Inv)
	return i.Mod(i, h.pow[pk.S]), nil
}

// Add returns E(x+y) = E(x) * E(y) mod N^{s+1}.
func (pk *PublicKey) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := pk.validateCiphertext(a); err != nil {
		return nil, err
	}
	if err := pk.validateCiphertext(b); err != nil {
		return nil, err
	}
	return &Ciphertext{C: pk.mulNS1(a.C, b.C)}, nil
}

// ExpCipher raises a to a first-layer Paillier ciphertext read as a
// plaintext exponent in Z_{N^s}: E2(x)^{Enc(m)} = E2(x * Enc(m) mod N^2),
// the paper's layered homomorphism.
func (pk *PublicKey) ExpCipher(a *Ciphertext, e *paillier.Ciphertext) (*Ciphertext, error) {
	if err := pk.validateCiphertext(a); err != nil {
		return nil, err
	}
	if e == nil || e.C == nil {
		return nil, ErrMessageRange
	}
	return &Ciphertext{C: pk.engNS1.ExpMod(a.C, new(big.Int).Mod(e.C, pk.NS))}, nil
}

// Clone returns a deep copy of the ciphertext.
func (c *Ciphertext) Clone() *Ciphertext {
	if c == nil || c.C == nil {
		return nil
	}
	return &Ciphertext{C: new(big.Int).Set(c.C)}
}

// ByteLen returns the serialized size of a ciphertext under this key.
func (pk *PublicKey) ByteLen() int { return (pk.NS1.BitLen() + 7) / 8 }
