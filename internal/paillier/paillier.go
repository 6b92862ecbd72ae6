// Package paillier implements the Paillier public-key cryptosystem
// (Paillier, EUROCRYPT 1999), the additively homomorphic encryption scheme
// that SecTopK uses for every score, bound, and EHL component.
//
// Messages live in Z_N and ciphertexts in Z*_{N^2}. The scheme supports
//
//	Enc(x) * Enc(y)   = Enc(x + y)   (Add)
//	Enc(x)^a          = Enc(a * x)   (MulConst)
//	Enc(x)^{-1}       = Enc(-x)      (Neg)
//
// which are the only homomorphic properties the paper's protocols rely on
// (Section 3.3). Decryption is CRT-accelerated using the factorization.
package paillier

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/secerr"
	"repro/internal/zmath"
)

// MinKeyBits is the smallest modulus size GenerateKey accepts. The paper's
// own evaluation uses a 256-bit N ("128-bit primes", Section 5); production
// deployments should use 2048 or more.
const MinKeyBits = 128

// ErrNotSafePrime is wrapped by FromPrimes when a factor is not a safe
// prime: every key's nonce producer rests on safe primes (NoncePower).
var ErrNotSafePrime = secerr.New(secerr.CodeBadRequest, "paillier: key factors must be safe primes")

var (
	// ErrMessageRange is returned when a plaintext is outside [0, N).
	ErrMessageRange = errors.New("paillier: message outside [0, N)")
	// ErrCiphertextRange is returned when a ciphertext is outside (0, N^2)
	// or shares a factor with N.
	ErrCiphertextRange = errors.New("paillier: invalid ciphertext")
	// ErrKeyMismatch is returned when operands were encrypted under
	// different public keys.
	ErrKeyMismatch = errors.New("paillier: ciphertexts under different keys")
)

// PublicKey holds the Paillier public key N together with cached values.
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // N^2, the ciphertext modulus

	// engN and engN2 are the reduction engines for the two long-lived
	// moduli, precomputed by the constructors (every key is built by one).
	engN  *zmath.Modulus
	engN2 *zmath.Modulus

	// nonce is the key's one nonce producer, derived from N by the
	// constructors; its table is built on the first draw.
	nonce *zmath.NonceBase
}

// EngineN returns the reduction engine for N. Callers must treat it as
// read-only.
func (pk *PublicKey) EngineN() *zmath.Modulus { return pk.engN }

// EngineN2 returns the reduction engine for the ciphertext modulus N^2.
func (pk *PublicKey) EngineN2() *zmath.Modulus { return pk.engN2 }

// attachEngines populates the reduction engines and derives the nonce
// producer. N is odd for every key a constructor builds (a product of odd
// primes, or a transmitted modulus NewPublicKeyFromN checked), so the
// engines cannot fail; the derivation refuses a modulus that is publicly
// no product of two primes.
func (pk *PublicKey) attachEngines() error {
	pk.engN = zmath.MustModulus(pk.N)
	pk.engN2 = zmath.MustModulus(pk.N2)
	nonce, err := zmath.NewNonceBase(pk.N, pk.engN2)
	if err != nil {
		return fmt.Errorf("paillier: %w", err)
	}
	pk.nonce = nonce
	return nil
}

// mulN2 multiplies mod N^2 through the engine.
func (pk *PublicKey) mulN2(a, b *big.Int) *big.Int { return pk.engN2.MulMod(a, b) }

// PrivateKey holds the factorization and the CRT decryption caches.
type PrivateKey struct {
	PublicKey
	P, Q *big.Int

	p2, q2   *big.Int // p^2, q^2
	pOrder   *big.Int // p-1
	qOrder   *big.Int // q-1
	hp, hq   *big.Int // CRT decryption multipliers
	pInvModQ *big.Int // p^{-1} mod q for plaintext recombination
	Lambda   *big.Int // lcm(p-1, q-1), the textbook decryption exponent (reference decryptions in tests)
}

// Ciphertext is a Paillier ciphertext: an element of Z*_{N^2}.
type Ciphertext struct {
	C *big.Int
}

// GenerateKey creates a Paillier key pair with an N of the given bit
// length, from safe primes p = 2p'+1 and q = 2q'+1. It redraws the primes
// in the rare case (probability about 1/p' + 1/q') that the nonce base
// derived from N falls short of order λ.
func GenerateKey(rnd io.Reader, bits int) (*PrivateKey, error) {
	if bits < MinKeyBits {
		return nil, fmt.Errorf("paillier: key size %d below minimum %d", bits, MinKeyBits)
	}
	for {
		p, err := zmath.SafePrime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := zmath.SafePrime(rnd, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		sk, err := newPrivateKey(p, q)
		if err != nil {
			continue
		}
		return sk, nil
	}
}

// FromPrimes rebuilds a private key from its prime factors (e.g. when
// loading stored key material). The primes are validated for primality,
// safety and size; a factor that is not a safe prime is refused typed
// bad_request (ErrNotSafePrime).
func FromPrimes(p, q *big.Int) (*PrivateKey, error) {
	if p == nil || q == nil || p.Cmp(q) == 0 {
		return nil, errors.New("paillier: need two distinct primes")
	}
	if !p.ProbablyPrime(32) || !q.ProbablyPrime(32) {
		return nil, errors.New("paillier: factors are not prime")
	}
	if p.BitLen()+q.BitLen() < MinKeyBits {
		return nil, fmt.Errorf("paillier: modulus below %d bits", MinKeyBits)
	}
	for _, f := range []*big.Int{p, q} {
		if err := zmath.CheckSafePrime(f); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotSafePrime, err)
		}
	}
	return newPrivateKey(p, q)
}

func newPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	n := new(big.Int).Mul(p, q)
	// gcd(N, (p-1)(q-1)) must be 1; guaranteed when p, q are distinct
	// primes of the same size, but verify anyway.
	pm1 := new(big.Int).Sub(p, zmath.One)
	qm1 := new(big.Int).Sub(q, zmath.One)
	phi := new(big.Int).Mul(pm1, qm1)
	if new(big.Int).GCD(nil, nil, n, phi).Cmp(zmath.One) != 0 {
		return nil, errors.New("paillier: gcd(N, phi) != 1")
	}
	pub := PublicKey{N: n, N2: new(big.Int).Mul(n, n)}
	if err := pub.attachEngines(); err != nil {
		return nil, err
	}
	// Only the key holder can check the base's order exactly: it is λ =
	// 2p'q' unless y^(λ/p') or y^(λ/q') is 1 (its Jacobi symbol -1 already
	// rules out y^(λ/2) = 1). pm1 = 2p' = λ/q', qm1 = 2q' = λ/p'.
	y := pub.nonce.Base()
	for _, e := range []*big.Int{pm1, qm1} {
		if new(big.Int).Exp(y, e, n).Cmp(zmath.One) == 0 {
			return nil, errors.New("paillier: the nonce base derived from N has order below λ")
		}
	}
	sk := &PrivateKey{
		PublicKey: pub,
		P:         new(big.Int).Set(p),
		Q:         new(big.Int).Set(q),
		p2:        new(big.Int).Mul(p, p),
		q2:        new(big.Int).Mul(q, q),
		pOrder:    pm1,
		qOrder:    qm1,
		Lambda:    zmath.Lcm(pm1, qm1),
	}
	// With g = 1+N, L_p(g^{p-1} mod p^2) = (p-1) * [N/p part]...; computing
	// the multipliers directly from the definition keeps this honest:
	// hp = L_p((1+N)^{p-1} mod p^2)^{-1} mod p.
	g := new(big.Int).Add(n, zmath.One)
	hpBase := new(big.Int).Exp(g, pm1, sk.p2)
	hp := lFunc(hpBase, p)
	hq2 := new(big.Int).Exp(g, qm1, sk.q2)
	hq := lFunc(hq2, q)
	var err error
	if sk.hp, err = zmath.ModInverse(hp, p); err != nil {
		return nil, fmt.Errorf("paillier: hp not invertible: %w", err)
	}
	if sk.hq, err = zmath.ModInverse(hq, q); err != nil {
		return nil, fmt.Errorf("paillier: hq not invertible: %w", err)
	}
	if sk.pInvModQ, err = zmath.ModInverse(p, q); err != nil {
		return nil, fmt.Errorf("paillier: p not invertible mod q: %w", err)
	}
	return sk, nil
}

// lFunc is Paillier's L function, L(u) = (u-1)/d.
func lFunc(u, d *big.Int) *big.Int {
	out := new(big.Int).Sub(u, zmath.One)
	return out.Div(out, d)
}

// Equal reports whether two public keys are the same key.
func (pk *PublicKey) Equal(other *PublicKey) bool {
	return other != nil && pk.N.Cmp(other.N) == 0
}

// NewPublicKeyFromN reconstructs a public key from a transmitted modulus
// (e.g. the ephemeral key S1 ships inside SecDedup requests).
func NewPublicKeyFromN(n *big.Int) (*PublicKey, error) {
	if n == nil || n.BitLen() < MinKeyBits {
		return nil, fmt.Errorf("paillier: modulus missing or below %d bits", MinKeyBits)
	}
	if n.Bit(0) == 0 {
		return nil, errors.New("paillier: modulus must be odd")
	}
	pk := &PublicKey{N: new(big.Int).Set(n), N2: new(big.Int).Mul(n, n)}
	if err := pk.attachEngines(); err != nil {
		return nil, err
	}
	return pk, nil
}

// validateMessage normalizes m into [0, N), accepting negative inputs as
// their residue (e.g. -1 encrypts to N-1, the dedup sentinel).
func (pk *PublicKey) validateMessage(m *big.Int) (*big.Int, error) {
	if m == nil {
		return nil, ErrMessageRange
	}
	mm := new(big.Int).Mod(m, pk.N)
	return mm, nil
}

// Encrypt encrypts m (interpreted mod N) with fresh randomness.
func (pk *PublicKey) Encrypt(m *big.Int) (*Ciphertext, error) {
	rn, err := pk.NoncePower()
	if err != nil {
		return nil, err
	}
	return pk.EncryptWithPower(m, rn)
}

// EncryptWithNonce encrypts m with the caller-provided nonce r in Z*_N.
// With g = 1+N, Enc(m) = (1 + m*N) * r^N mod N^2.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	if r == nil || r.Sign() <= 0 || r.Cmp(pk.N) >= 0 {
		return nil, errors.New("paillier: nonce outside (0, N)")
	}
	return pk.EncryptWithPower(m, new(big.Int).Exp(r, pk.N, pk.N2))
}

// EncryptInt64 is a convenience wrapper around Encrypt.
func (pk *PublicKey) EncryptInt64(m int64) (*Ciphertext, error) {
	return pk.Encrypt(big.NewInt(m))
}

// EncryptZero returns a fresh encryption of zero (used for blinding and
// re-randomization).
func (pk *PublicKey) EncryptZero() (*Ciphertext, error) {
	return pk.Encrypt(zmath.Zero)
}

// validateCiphertext checks c is in the ciphertext group.
func (pk *PublicKey) validateCiphertext(c *Ciphertext) error {
	if c == nil || c.C == nil || c.C.Sign() <= 0 || c.C.Cmp(pk.N2) >= 0 {
		return ErrCiphertextRange
	}
	return nil
}

// Decrypt recovers the plaintext in [0, N) using CRT.
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	if err := sk.validateCiphertext(c); err != nil {
		return nil, err
	}
	// m mod p = L_p(c^{p-1} mod p^2) * hp mod p, likewise for q.
	cp := new(big.Int).Exp(new(big.Int).Mod(c.C, sk.p2), sk.pOrder, sk.p2)
	mp := lFunc(cp, sk.P)
	mp.Mul(mp, sk.hp)
	mp.Mod(mp, sk.P)

	cq := new(big.Int).Exp(new(big.Int).Mod(c.C, sk.q2), sk.qOrder, sk.q2)
	mq := lFunc(cq, sk.Q)
	mq.Mul(mq, sk.hq)
	mq.Mod(mq, sk.Q)

	return zmath.CRTPair(mp, mq, sk.P, sk.Q, sk.pInvModQ), nil
}

// IsZero reports whether c encrypts a multiple of P, from P's half of a
// decryption alone: c^(p-1) mod p^2 is (1+N)^(m(p-1)) = 1 + m(p-1)N
// mod p^2, the nonce power having order dividing p(p-1) there, and that
// is 1 iff p divides m. It answers Decrypt(c) == 0 with one
// exponentiation and no CRT step, where a decryption takes two and one.
// A nonzero m that p divides reads as zero: for a plaintext that hides
// its value from the caller (an EHL difference, a padding test) that is a
// false positive of probability 1/p per test, below 2^-63 at MinKeyBits
// and 2^-1023 at 2048-bit keys.
func (sk *PrivateKey) IsZero(c *Ciphertext) (bool, error) {
	if err := sk.validateCiphertext(c); err != nil {
		return false, err
	}
	cp := new(big.Int).Exp(new(big.Int).Mod(c.C, sk.p2), sk.pOrder, sk.p2)
	return cp.Cmp(zmath.One) == 0, nil
}

// DecryptSigned decrypts and maps the result to (-N/2, N/2].
func (sk *PrivateKey) DecryptSigned(c *Ciphertext) (*big.Int, error) {
	m, err := sk.Decrypt(c)
	if err != nil {
		return nil, err
	}
	return zmath.Signed(m, sk.N), nil
}

// Add returns Enc(x + y) from Enc(x) and Enc(y).
func (pk *PublicKey) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := pk.validateCiphertext(a); err != nil {
		return nil, err
	}
	if err := pk.validateCiphertext(b); err != nil {
		return nil, err
	}
	return &Ciphertext{C: pk.mulN2(a.C, b.C)}, nil
}

// AddAll returns Enc(x_1 + ... + x_n) by folding the whole batch through
// one reduction chain (ProdMod) instead of a multiply-divide pair per
// element — the engine form of the homomorphic-sum loops. An empty batch
// is invalid (there is no canonical encryption of zero without
// randomness).
func (pk *PublicKey) AddAll(cts []*Ciphertext) (*Ciphertext, error) {
	if len(cts) == 0 {
		return nil, errors.New("paillier: AddAll of empty batch")
	}
	vals := make([]*big.Int, len(cts))
	for i, ct := range cts {
		if err := pk.validateCiphertext(ct); err != nil {
			return nil, err
		}
		vals[i] = ct.C
	}
	return &Ciphertext{C: pk.engN2.ProdMod(vals)}, nil
}

// AddPlain returns Enc(x + k) for plaintext k without consuming randomness:
// Enc(x) * (1+N)^k mod N^2.
func (pk *PublicKey) AddPlain(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.validateCiphertext(a); err != nil {
		return nil, err
	}
	kk := new(big.Int).Mod(k, pk.N)
	gk := new(big.Int).Mul(kk, pk.N)
	gk.Add(gk, zmath.One)
	return &Ciphertext{C: pk.mulN2(gk, a.C)}, nil
}

// MulConst returns Enc(k * x) = Enc(x)^k. Negative k is interpreted mod N.
func (pk *PublicKey) MulConst(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.validateCiphertext(a); err != nil {
		return nil, err
	}
	kk := new(big.Int).Mod(k, pk.N)
	c := new(big.Int).Exp(a.C, kk, pk.N2)
	return &Ciphertext{C: c}, nil
}

// Neg returns Enc(-x) = Enc(x)^{-1} mod N^2.
func (pk *PublicKey) Neg(a *Ciphertext) (*Ciphertext, error) {
	if err := pk.validateCiphertext(a); err != nil {
		return nil, err
	}
	inv, err := zmath.ModInverse(a.C, pk.N2)
	if err != nil {
		return nil, fmt.Errorf("paillier: Neg: %w", err)
	}
	return &Ciphertext{C: inv}, nil
}

// Sub returns Enc(x - y).
func (pk *PublicKey) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	nb, err := pk.Neg(b)
	if err != nil {
		return nil, err
	}
	return pk.Add(a, nb)
}

// Rerandomize multiplies by a fresh encryption of zero, producing a
// ciphertext of the same plaintext that is unlinkable to the input.
func (pk *PublicKey) Rerandomize(a *Ciphertext) (*Ciphertext, error) {
	z, err := pk.EncryptZero()
	if err != nil {
		return nil, err
	}
	return pk.Add(a, z)
}

// Clone returns a deep copy of the ciphertext.
func (c *Ciphertext) Clone() *Ciphertext {
	if c == nil || c.C == nil {
		return nil
	}
	return &Ciphertext{C: new(big.Int).Set(c.C)}
}

// Bytes returns the minimal big-endian encoding of the ciphertext value.
func (c *Ciphertext) Bytes() []byte { return c.C.Bytes() }

// CiphertextFromBytes reconstructs a ciphertext from Bytes output.
func CiphertextFromBytes(b []byte) *Ciphertext {
	return &Ciphertext{C: new(big.Int).SetBytes(b)}
}

// ByteLen returns the byte length of a serialized ciphertext under this key
// (used by the bandwidth accounting of Section 11.2.5).
func (pk *PublicKey) ByteLen() int { return (pk.N2.BitLen() + 7) / 8 }
