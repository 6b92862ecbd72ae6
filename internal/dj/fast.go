package dj

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/paillier"
	"repro/internal/zmath"
)

// NonceSource produces the nonce powers r^{N^s} mod N^{s+1} that dominate
// DJ encryption, mirroring paillier.NonceSource: PublicKey is the spec
// path, CRTEncryptor and FastEncryptor the precomputation fast paths, and
// NoncePool buffers any of them.
type NonceSource interface {
	Key() *PublicKey
	NoncePower() (*big.Int, error)
}

// NoncePower samples a fresh r in Z*_N and returns r^{N^s} mod N^{s+1} —
// the spec path, one full-width exponentiation per nonce.
func (pk *PublicKey) NoncePower() (*big.Int, error) {
	r, err := zmath.RandUnit(rand.Reader, pk.N)
	if err != nil {
		return nil, fmt.Errorf("dj: sampling randomness: %w", err)
	}
	return new(big.Int).Exp(r, pk.NS, pk.NS1), nil
}

// encryptFromSource assembles a fresh encryption of m from src's next
// nonce power.
func encryptFromSource(src NonceSource, m *big.Int) (*Ciphertext, error) {
	rn, err := src.NoncePower()
	if err != nil {
		return nil, err
	}
	return src.Key().encryptWithRN(m, rn)
}

// CRTEncryptor is the key holder's fast path for DJ nonces, mirroring
// paillier.CRTEncryptor: the spec path's nonce powers
// {r^{N^s} mod N^{s+1}} are uniform over the N^s-th residue subgroup,
// whose CRT components are the unique order-(p-1) / order-(q-1)
// subgroups of Z*_{p^{s+1}} / Z*_{q^{s+1}}; each is sampled directly as
// sp^{p^s} for a uniform unit sp. Assumption-free: the nonce
// distribution is exactly the spec path's, at a fraction of the cost
// (for s = 2, two 2n/2-bit-exponent exponentiations over 1.5n-bit moduli
// replace one 2n-bit-exponent exponentiation over a 3n-bit modulus).
type CRTEncryptor struct {
	sk     *PrivateKey
	ep, eq *big.Int // N^s reduced mod p^s(p-1) and q^s(q-1), for noncePowerOf
	pS, qS *big.Int // p^s, q^s, the direct-sampling exponents
}

// CRTEncryptor returns the CRT-accelerated encryption surface for the
// private key.
func (sk *PrivateKey) CRTEncryptor() *CRTEncryptor {
	return &CRTEncryptor{
		sk: sk,
		ep: new(big.Int).Mod(sk.NS, sk.ordP),
		eq: new(big.Int).Mod(sk.NS, sk.ordQ),
		pS: sk.halfP.pow[sk.S],
		qS: sk.halfQ.pow[sk.S],
	}
}

// Key returns the underlying public key.
func (e *CRTEncryptor) Key() *PublicKey { return &e.sk.PublicKey }

// noncePowerOf computes r^{N^s} mod N^{s+1} for a caller-provided r via
// the classic CRT split (exponent reduced mod the unit-group orders);
// kept so tests can pin bit-identical equivalence with the spec path.
// NoncePower uses the cheaper direct subgroup sampling.
func (e *CRTEncryptor) noncePowerOf(r *big.Int) *big.Int {
	rp := new(big.Int).Exp(new(big.Int).Mod(r, e.sk.ps1), e.ep, e.sk.ps1)
	rq := new(big.Int).Exp(new(big.Int).Mod(r, e.sk.qs1), e.eq, e.sk.qs1)
	return zmath.CRTPair(rp, rq, e.sk.ps1, e.sk.qs1, e.sk.ps1InvModQs1)
}

// NoncePower returns a uniform N^s-th residue mod N^{s+1} by sampling
// its CRT components directly (see the type comment).
func (e *CRTEncryptor) NoncePower() (*big.Int, error) {
	xp, err := zmath.SampleSubgroupPower(rand.Reader, e.sk.ps1, e.sk.halfP.pow[1], e.pS)
	if err != nil {
		return nil, err
	}
	xq, err := zmath.SampleSubgroupPower(rand.Reader, e.sk.qs1, e.sk.halfQ.pow[1], e.qS)
	if err != nil {
		return nil, err
	}
	return zmath.CRTPair(xp, xq, e.sk.ps1, e.sk.qs1, e.sk.ps1InvModQs1), nil
}

// Encrypt encrypts m with a CRT-computed nonce power.
func (e *CRTEncryptor) Encrypt(m *big.Int) (*Ciphertext, error) {
	return encryptFromSource(e, m)
}

// EncryptInner encrypts a first-layer Paillier ciphertext under the outer
// DJ layer through the CRT path.
func (e *CRTEncryptor) EncryptInner(inner *paillier.Ciphertext) (*Ciphertext, error) {
	if e.sk.S < 2 {
		return nil, fmt.Errorf("dj: EncryptInner needs s >= 2, have s = %d", e.sk.S)
	}
	if inner == nil || inner.C == nil {
		return nil, ErrMessageRange
	}
	return e.Encrypt(inner.C)
}

// Rerandomize multiplies by a fresh encryption of zero.
func (e *CRTEncryptor) Rerandomize(a *Ciphertext) (*Ciphertext, error) {
	z, err := e.Encrypt(zmath.Zero)
	if err != nil {
		return nil, err
	}
	return e.Key().Add(a, z)
}

// FastEncryptor is the opt-in short-exponent fast path for DJ nonces,
// mirroring paillier.FastEncryptor: precompute hNs = h^{N^s} mod N^{s+1}
// once for a random quadratic residue h, then draw nonce powers as
// hNs^alpha for short random alpha through a fixed-base windowed table.
// Carries the same short-exponent/subgroup assumption as the Paillier
// variant and is therefore opt-in; see the security note in DESIGN.md.
type FastEncryptor struct {
	pk      *PublicKey
	table   *zmath.FixedBaseTable
	expHi   *big.Int
	expBits int
}

// NewFastEncryptor precomputes the fast-nonce table for pk. expBits <= 0
// selects paillier.FastNonceBits.
func NewFastEncryptor(pk *PublicKey, expBits int) (*FastEncryptor, error) {
	if expBits <= 0 {
		expBits = paillier.FastNonceBits
	}
	if expBits < 2*64 {
		return nil, fmt.Errorf("dj: fast-nonce exponent %d bits below the short-exponent safety margin", expBits)
	}
	x, err := zmath.RandUnit(rand.Reader, pk.N)
	if err != nil {
		return nil, fmt.Errorf("dj: sampling fast-nonce base: %w", err)
	}
	h := new(big.Int).Mul(x, x)
	h.Mod(h, pk.N)
	hNs := new(big.Int).Exp(h, pk.NS, pk.NS1)
	// Keep the table entries in Montgomery form when the key carries an
	// engine, so nonce draws run their window chains division-free.
	var table *zmath.FixedBaseTable
	if eng := pk.EngineNS1(); eng != nil {
		table, err = zmath.NewFixedBaseTableMod(hNs, eng, paillier.FastNonceWindow, expBits)
	} else {
		table, err = zmath.NewFixedBaseTable(hNs, pk.NS1, paillier.FastNonceWindow, expBits)
	}
	if err != nil {
		return nil, fmt.Errorf("dj: building fast-nonce table: %w", err)
	}
	return &FastEncryptor{
		pk:      pk,
		table:   table,
		expHi:   new(big.Int).Lsh(zmath.One, uint(expBits)),
		expBits: expBits,
	}, nil
}

// Key returns the underlying public key.
func (e *FastEncryptor) Key() *PublicKey { return e.pk }

// NoncePower draws a short random exponent alpha and returns
// (h^{N^s})^alpha mod N^{s+1} from the fixed-base table.
func (e *FastEncryptor) NoncePower() (*big.Int, error) {
	alpha, err := zmath.RandRange(rand.Reader, zmath.One, e.expHi)
	if err != nil {
		return nil, fmt.Errorf("dj: sampling fast-nonce exponent: %w", err)
	}
	return e.table.Exp(alpha)
}

// Encrypt encrypts m with a fast-path nonce power.
func (e *FastEncryptor) Encrypt(m *big.Int) (*Ciphertext, error) {
	return encryptFromSource(e, m)
}

// Rerandomize multiplies by a fresh encryption of zero.
func (e *FastEncryptor) Rerandomize(a *Ciphertext) (*Ciphertext, error) {
	z, err := e.Encrypt(zmath.Zero)
	if err != nil {
		return nil, err
	}
	return e.pk.Add(a, z)
}
