package zmath

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/parallel"
)

// This file is the one place nonce powers r^(N^s) mod N^(s+1) are
// produced — the exponentiation every Paillier (s = 1) and Damgård–Jurik
// (s = 2) encryption bottoms out in — and NonceEncryptor, the one wrapper
// that turns a producer and either scheme's public key into an encryption
// surface. Only EncryptWithNonce, with a caller-supplied r, exponentiates
// on its own, as the tests' reference.

// SpecNoncePower is the spec path: a uniform r in Z*_N raised with one
// full-width exponentiation, ns = N^s and ns1 = N^(s+1).
func SpecNoncePower(n, ns, ns1 *big.Int) (*big.Int, error) {
	r, err := RandUnit(rand.Reader, n)
	if err != nil {
		return nil, fmt.Errorf("zmath: sampling nonce: %w", err)
	}
	return new(big.Int).Exp(r, ns, ns1), nil
}

// CRTNonce is the key holder's sampler. The spec path's nonce powers
// {r^(N^s) mod N^(s+1) : r uniform in Z*_N} are exactly the uniform
// distribution over the subgroup of N^s-th residues, whose CRT
// components are the unique order-(p-1) and order-(q-1) subgroups of the
// cyclic groups Z*_{p^(s+1)} and Z*_{q^(s+1)} (gcd(q, p-1) = gcd(p, q-1)
// = 1 for distinct same-size primes). With the factorization each
// component can be sampled directly: the map x -> x^(p^s) on
// Z*_{p^(s+1)} surjects uniformly onto that same order-(p-1) subgroup,
// so a uniform nonce power is CRT(sp^(p^s) mod p^(s+1), sq^(q^s) mod
// q^(s+1)) for uniform units sp, sq — two half-width exponents over
// half-width moduli in place of one full-width exponentiation (for
// s = 2, two n-bit exponents over 1.5n-bit moduli replace a 2n-bit
// exponent over a 3n-bit modulus). Identical output distribution to the
// spec path — assumption-free — at a quarter of the word multiplications.
//
// Only parties holding the private key can build one: the data owner
// bulk-encrypting a relation, the crypto cloud S2 re-blinding, and S1 for
// its own ephemeral key.
type CRTNonce struct {
	p, q     *big.Int
	ps, qs   *big.Int // p^s, q^s: the direct-sampling exponents
	ps1, qs1 *big.Int // p^(s+1), q^(s+1): the component moduli
	ps1Inv   *big.Int // (p^(s+1))^-1 mod q^(s+1)
	ep, eq   *big.Int // N^s reduced mod the unit-group orders, for PowerOf
}

// NewCRTNonce builds the degree-s sampler for N = p*q from the key's
// precomputed ps1Inv = (p^(s+1))^-1 mod q^(s+1).
func NewCRTNonce(p, q, ps1Inv *big.Int, s int) *CRTNonce {
	e := big.NewInt(int64(s))
	c := &CRTNonce{p: p, q: q, ps: new(big.Int).Exp(p, e, nil), qs: new(big.Int).Exp(q, e, nil), ps1Inv: ps1Inv}
	c.ps1, c.qs1 = new(big.Int).Mul(c.ps, p), new(big.Int).Mul(c.qs, q)
	ns := new(big.Int).Mul(c.ps, c.qs)
	// |Z*_{p^(s+1)}| = p^s (p-1)
	c.ep = new(big.Int).Mod(ns, new(big.Int).Mul(c.ps, new(big.Int).Sub(p, One)))
	c.eq = new(big.Int).Mod(ns, new(big.Int).Mul(c.qs, new(big.Int).Sub(q, One)))
	return c
}

// PowerOf computes r^(N^s) mod N^(s+1) for a caller-provided r via the
// classic CRT split (exponent reduced mod the unit-group orders). Kept
// so tests can pin bit-identical equivalence with the spec path on fixed
// nonces; NoncePower uses the cheaper direct subgroup sampling.
func (c *CRTNonce) PowerOf(r *big.Int) *big.Int {
	rp := new(big.Int).Exp(new(big.Int).Mod(r, c.ps1), c.ep, c.ps1)
	rq := new(big.Int).Exp(new(big.Int).Mod(r, c.qs1), c.eq, c.qs1)
	return CRTPair(rp, rq, c.ps1, c.qs1, c.ps1Inv)
}

// NoncePower returns a uniform N^s-th residue mod N^(s+1) by sampling
// its CRT components directly (see the type comment for why this matches
// the spec path's distribution exactly).
func (c *CRTNonce) NoncePower() (*big.Int, error) {
	xp, err := SampleSubgroupPower(rand.Reader, c.ps1, c.p, c.ps)
	if err != nil {
		return nil, err
	}
	xq, err := SampleSubgroupPower(rand.Reader, c.qs1, c.q, c.qs)
	if err != nil {
		return nil, err
	}
	return CRTPair(xp, xq, c.ps1, c.qs1, c.ps1Inv), nil
}

const (
	// fastNonceBits is the short-exponent length: twice a 128-bit
	// security parameter, the standard margin for the short-exponent
	// indistinguishability assumption.
	fastNonceBits = 256
	// fastNonceWindow keeps the per-key table a few thousand entries
	// while cutting a 256-bit exponent to ~43 multiplications.
	fastNonceWindow = 6
)

// FastNonce is the opt-in fast-nonce path, usable by any party holding
// only the public key: precompute hNs = h^(N^s) mod N^(s+1) once for a
// random quadratic residue h, then draw nonce powers as hNs^alpha for
// short random alpha (fastNonceBits bits) through a fixed-base windowed
// table — ~45 modular multiplications per nonce instead of a full-width
// exponentiation.
//
// SECURITY: the spec path draws nonces uniformly from the N^s-th
// residues; this path draws them from the subgroup generated by h^(N^s)
// with short exponents. Indistinguishability rests on the standard
// short-exponent / subgroup assumption (as in the Damgård–Jurik–Nielsen
// fast variant of Paillier), which is an extra assumption on top of DCR.
// It is therefore opt-in everywhere (cloud.WithFastNonce, -fast-nonce,
// core.Params.FastNonce); the default remains spec-faithful.
type FastNonce struct {
	table *FixedBaseTable
	expHi *big.Int // 2^fastNonceBits, the exclusive sampling bound
}

// NewFastNonce precomputes the table for one key at degree s (ns = N^s,
// ns1 = N^(s+1)). eng, the key's engine for ns1, may be nil; with it the
// table keeps its entries in Montgomery form, so every nonce draw runs
// its whole window chain division-free. The build costs a few full-width
// exponentiations' worth of multiplications and amortizes after a
// handful of encryptions.
func NewFastNonce(n, ns, ns1 *big.Int, eng *Modulus) (*FastNonce, error) {
	x, err := RandUnit(rand.Reader, n)
	if err != nil {
		return nil, fmt.Errorf("zmath: sampling fast-nonce base: %w", err)
	}
	// h = x^2 mod N is a uniform quadratic residue; h^(N^s) generates the
	// subgroup the short-exponent nonces are drawn from.
	h := new(big.Int).Mul(x, x)
	h.Mod(h, n)
	h.Exp(h, ns, ns1)
	var table *FixedBaseTable
	if eng != nil {
		table, err = NewFixedBaseTableMod(h, eng, fastNonceWindow, fastNonceBits)
	} else {
		table, err = NewFixedBaseTable(h, ns1, fastNonceWindow, fastNonceBits)
	}
	if err != nil {
		return nil, fmt.Errorf("zmath: building fast-nonce table: %w", err)
	}
	return &FastNonce{table: table, expHi: new(big.Int).Lsh(One, fastNonceBits)}, nil
}

// NoncePower draws a short random exponent alpha and returns
// (h^(N^s))^alpha mod N^(s+1) from the fixed-base table.
func (f *FastNonce) NoncePower() (*big.Int, error) {
	alpha, err := RandRange(rand.Reader, One, f.expHi)
	if err != nil {
		return nil, fmt.Errorf("zmath: sampling fast-nonce exponent: %w", err)
	}
	return f.table.Exp(alpha)
}

// NonceKey is a scheme's public key as NonceEncryptor uses it; C is the
// scheme's ciphertext type.
type NonceKey[C any] interface {
	// NoncePower is the spec path at the key's degree (SpecNoncePower).
	NoncePower() (*big.Int, error)
	// EncryptWithPower assembles (1+N)^m * power mod N^(s+1).
	EncryptWithPower(m, power *big.Int) (C, error)
	Add(a, b C) (C, error)
}

// NonceEncryptor is a public key plus where its nonce powers come from:
// every encryption surface of either scheme other than the bare key (the
// spec path). paillier and dj instantiate it and keep the constructors.
type NonceEncryptor[K NonceKey[C], C any] struct {
	key   K
	power func() (*big.Int, error)
	close func() // stops a pool's fillers; nil on unpooled surfaces
}

// NewNonceEncryptor encrypts under key with nonce powers drawn from power.
func NewNonceEncryptor[K NonceKey[C], C any](key K, power func() (*big.Int, error)) *NonceEncryptor[K, C] {
	return &NonceEncryptor[K, C]{key: key, power: power}
}

// NewPooledEncryptor encrypts under key with nonce powers that workers
// background goroutines (started by the first draw) precompute from src,
// up to capacity ahead. src is any producer — the spec path, the CRT
// sampler, the fast-nonce table — and a drained or closed pool computes
// inline (parallel.Pool.Next), so pooling never changes results. Close
// must be called to release the fillers.
func NewPooledEncryptor[K NonceKey[C], C any](key K, src func() (*big.Int, error), workers, capacity int) *NonceEncryptor[K, C] {
	pool := parallel.NewPool(workers, capacity, src)
	return &NonceEncryptor[K, C]{key: key, power: pool.Next, close: pool.Close}
}

// Close stops a pool's background fillers; the surface remains usable
// afterwards. A no-op on unpooled surfaces.
func (e *NonceEncryptor[K, C]) Close() {
	if e.close != nil {
		e.close()
	}
}

// Key returns the underlying public key.
func (e *NonceEncryptor[K, C]) Key() K { return e.key }

// NoncePower returns the surface's next nonce power, which makes it a
// source a pool can buffer.
func (e *NonceEncryptor[K, C]) NoncePower() (*big.Int, error) { return e.power() }

// Encrypt encrypts m under the surface's next nonce power.
func (e *NonceEncryptor[K, C]) Encrypt(m *big.Int) (c C, err error) {
	rn, err := e.power()
	if err != nil {
		return c, err
	}
	return e.key.EncryptWithPower(m, rn)
}

// EncryptZero returns a fresh encryption of zero.
func (e *NonceEncryptor[K, C]) EncryptZero() (C, error) { return e.Encrypt(Zero) }

// Rerandomize multiplies by a fresh encryption of zero.
func (e *NonceEncryptor[K, C]) Rerandomize(a C) (C, error) {
	z, err := e.EncryptZero()
	if err != nil {
		return z, err
	}
	return e.key.Add(a, z)
}
