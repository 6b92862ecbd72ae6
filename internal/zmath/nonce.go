package zmath

import (
	"crypto/rand"
	"fmt"
	"math/big"
)

// This file is the one place nonce powers r^(N^s) mod N^(s+1) are
// produced — the exponentiation every Paillier (s = 1) and Damgård–Jurik
// (s = 2) encryption bottoms out in. Both producers draw the same
// distribution, the uniform N^s-th residues: SpecNoncePower from the
// public key alone, CRTNonce from the factorization. Only
// EncryptWithNonce, with a caller-supplied r, exponentiates on its own,
// as the tests' reference.

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
