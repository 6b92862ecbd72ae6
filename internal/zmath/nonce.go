package zmath

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync"
)

// This file is the one place nonce powers r^(N^s) mod N^(s+1) are
// produced — the exponentiation every Paillier (s = 1) and Damgård–Jurik
// (s = 2) encryption bottoms out in. Every Paillier party draws from one
// producer, NonceBase: a fixed-base table per modulus, for key holders
// and everyone else alike. SpecNoncePower (the scheme's definition) and
// CRTNonce remain for the Damgård–Jurik layer and as the tests'
// reference; all three draw the uniform N^s-th residues. Only
// EncryptWithNonce, with a caller-supplied r, exponentiates on its own.

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

// NonceBase is the one Paillier nonce producer: ±H^x mod N² for the fixed
// H = y^N mod N², a fresh sign and x uniform below 2^(|N|+nonceSlackBits),
// read off a table of H's windowed powers built once per modulus.
//
// It draws the spec path's distribution to within 2^-nonceSlackBits when
// N = pq has safe primes p = 2p'+1, q = 2q'+1 and y has Jacobi symbol -1
// and order λ = 2p'q' (DESIGN.md "Decision: one nonce distribution").
// Z*_N has order 2λ, so <y> has index 2; -1 has Jacobi symbol +1 (p and q
// are 3 mod 4) but is no square, while the Jacobi-(+1) half of <y> is the
// even powers of y, all squares, so -1 is not in <y> and
// <y> ∪ -<y> = Z*_N. x mod λ is within λ/2^(|N|+40) < 2^-40 of uniform,
// so ±y^x is a uniform unit r up to that distance, and its nonce power
// r^N = ±H^x (N is odd). The exponent is full width, so no assumption
// beyond DCR enters: this is not the deleted short-exponent path.
//
// The base is derived from N alone (deriveNonceBase), so every party with
// the modulus builds the same producer and no stream carries it; only a
// key holder can check y's order, which paillier does. The table holds,
// for each w-bit window i of the exponent and each digit d ≥ 1,
// H^(d·2^(wi)) in the Montgomery domain of N²: a draw is one kernel
// multiply per nonzero digit and one to leave the domain, no squarings.
// It is built on the first draw and read-only after; a NonceBase is safe
// for concurrent use.
type NonceBase struct {
	n     *big.Int // N
	y     *big.Int // the base, Jacobi symbol -1 mod N
	m     *Modulus // N², the table's modulus
	xBits int      // exponent width, |N| + nonceSlackBits
	w     int      // window width, nonceWindow(|N|)

	once  sync.Once
	table []big.Word // kernel: windows·(2^w - 1) entries of k limbs each
	plain []*big.Int // fallback: the same entries as plain residues
}

// nonceSlackBits is how far the exponent's width exceeds |N|: x mod λ is
// then within 2^-nonceSlackBits of uniform.
const nonceSlackBits = 40

// nonceBaseTries bounds the base derivation. A product of two distinct
// odd primes gives half of Z*_N Jacobi symbol -1, so a real modulus
// misses on every try with probability 2^-64; one that never hits (a
// square, whose every Jacobi symbol is 0 or +1) is refused after that
// many hashes, never looped on.
const nonceBaseTries = 64

// nonceBaseDomain separates the base derivation's hash from any other
// use of SHA-256 over a modulus.
const nonceBaseDomain = "sectopk/paillier-nonce-base/v1"

// nonceWindow is the table's window width for an nBits-bit modulus, read
// off BenchmarkNonceBaseSweep (EXPERIMENTS.md "One nonce producer"). A
// draw costs about (nBits+40)/w kernel multiplies; the table holds
// (nBits+40)/w · (2^w - 1) entries of 2·nBits bits, and building it takes
// one multiply per entry. Up to 2048 bits 6 is the knee: 7 saves 10-20 %
// a draw for 1.7 times the table and its build (197 KiB at 256 bits,
// 11 MiB at 2048); past 2048 bits 5 holds a 3072-bit table to 15 MiB.
func nonceWindow(nBits int) int {
	if nBits > 2048 {
		return 5
	}
	return 6
}

// NewNonceBase derives the producer for modulus n, with n2 the engine of
// n². It refuses a modulus that is not a product of two distinct primes
// in the ways a public check can see: even, prime, or without a derived
// base of Jacobi symbol -1 (a square). The table is built on first draw.
func NewNonceBase(n *big.Int, n2 *Modulus) (*NonceBase, error) {
	y, err := deriveNonceBase(n)
	if err != nil {
		return nil, err
	}
	return newNonceBase(n, y, n2, n.BitLen()+nonceSlackBits), nil
}

func newNonceBase(n, y *big.Int, n2 *Modulus, xBits int) *NonceBase {
	return &NonceBase{n: n, y: y, m: n2, xBits: xBits, w: nonceWindow(n.BitLen())}
}

// deriveNonceBase hashes N‖counter into Z_N for counter = 0, 1, ... and
// returns the first output of Jacobi symbol -1 (a unit, then, and no
// square).
func deriveNonceBase(n *big.Int) (*big.Int, error) {
	if n == nil || n.Bit(0) == 0 || n.Cmp(big.NewInt(3)) <= 0 {
		return nil, errors.New("zmath: nonce base: the modulus must be odd and above 3")
	}
	if n.ProbablyPrime(0) {
		return nil, errors.New("zmath: nonce base: the modulus is prime, not a product of two primes")
	}
	nb := n.Bytes()
	outLen := (n.BitLen() + 128 + 7) / 8 // 128 bits past N: the reduction is all but uniform
	buf := make([]byte, 0, outLen+sha256.Size)
	y := new(big.Int)
	var ctr [8]byte
	for try := uint32(0); try < nonceBaseTries; try++ {
		buf = buf[:0]
		for block := uint32(0); len(buf) < outLen; block++ {
			binary.BigEndian.PutUint32(ctr[:4], try)
			binary.BigEndian.PutUint32(ctr[4:], block)
			h := sha256.New()
			h.Write([]byte(nonceBaseDomain))
			h.Write(nb)
			h.Write(ctr[:])
			buf = h.Sum(buf)
		}
		y.SetBytes(buf[:outLen]).Mod(y, n)
		if big.Jacobi(y, n) == -1 {
			return y, nil
		}
	}
	return nil, fmt.Errorf("zmath: nonce base: no element of Jacobi symbol -1 among %d derived from the modulus, so it is not a product of two distinct primes", nonceBaseTries)
}

// Base returns y, the base the producer raises. Callers must treat it as
// read-only.
func (b *NonceBase) Base() *big.Int { return b.y }

// NoncePower returns ±H^x mod N² for a fresh sign and a fresh x uniform
// below 2^(|N|+nonceSlackBits).
func (b *NonceBase) NoncePower() (*big.Int, error) {
	buf := make([]byte, (b.xBits+8)/8) // xBits exponent bits and a sign bit
	if _, err := rand.Read(buf); err != nil {
		return nil, fmt.Errorf("zmath: sampling nonce exponent: %w", err)
	}
	neg := buf[0]&0x80 != 0
	buf[0] &= 0xff >> (8*len(buf) - b.xBits) // the excess is 1 to 8 bits, the top one the sign
	return b.power(new(big.Int).SetBytes(buf), neg), nil
}

// power returns H^x mod N², negated mod N² when neg, for 0 <= x <
// 2^xBits.
func (b *NonceBase) power(x *big.Int, neg bool) *big.Int {
	b.once.Do(b.build)
	var out *big.Int
	if b.m.active() {
		out = b.powerKernel(x.Bits())
	} else {
		out = b.powerFallback(x.Bits())
	}
	if neg {
		out.Sub(b.m.n, out)
	}
	return out
}

func (b *NonceBase) windows() int { return (b.xBits + b.w - 1) / b.w }

// digit returns the w bits of x starting at bit pos.
func digit(x []big.Word, pos, w int) int {
	const wordBits = bits.UintSize
	i, s := pos/wordBits, uint(pos%wordBits)
	if i >= len(x) {
		return 0
	}
	d := uint(x[i]) >> s
	if int(s)+w > wordBits && i+1 < len(x) {
		d |= uint(x[i+1]) << (wordBits - s)
	}
	return int(d & (1<<uint(w) - 1))
}

func (b *NonceBase) powerKernel(x []big.Word) *big.Int {
	m, k, per := b.m, b.m.k, 1<<b.w-1
	s := m.pool.Get().(*montScratch)
	defer m.pool.Put(s)
	acc, started := s.x, false
	for i := 0; i < b.windows(); i++ {
		d := digit(x, i*b.w, b.w)
		if d == 0 {
			continue
		}
		e := b.table[(i*per+d-1)*k : (i*per+d)*k]
		if started {
			m.montMul(acc, acc, e, s)
		} else {
			copy(acc, e)
			started = true
		}
	}
	if !started {
		return big.NewInt(1)
	}
	m.montMul(acc, acc, m.onel, s) // leave the domain
	return natToBig(acc)
}

func (b *NonceBase) powerFallback(x []big.Word) *big.Int {
	per := 1<<b.w - 1
	acc := big.NewInt(1)
	for i := 0; i < b.windows(); i++ {
		if d := digit(x, i*b.w, b.w); d != 0 {
			acc.Mul(acc, b.plain[i*per+d-1])
			acc.Mod(acc, b.m.n)
		}
	}
	return acc
}

// build fills the table: row i holds H^(d·2^(wi)) for d = 1 .. 2^w - 1,
// each the previous times the row's base, and the next row's base is the
// last entry times this one's.
func (b *NonceBase) build() {
	h := new(big.Int).Exp(b.y, b.n, b.m.n)
	windows, per := b.windows(), 1<<b.w-1
	if !b.m.active() {
		b.plain = make([]*big.Int, windows*per)
		cur := h
		for i := 0; i < windows; i++ {
			row := b.plain[i*per : (i+1)*per]
			row[0] = cur
			for d := 1; d < per; d++ {
				row[d] = new(big.Int).Mul(row[d-1], cur)
				row[d].Mod(row[d], b.m.n)
			}
			cur = new(big.Int).Mul(row[per-1], cur)
			cur.Mod(cur, b.m.n)
		}
		return
	}
	m, k := b.m, b.m.k
	s := m.pool.Get().(*montScratch)
	defer m.pool.Put(s)
	b.table = make([]big.Word, windows*per*k)
	cur := natFromBig(make([]big.Word, k), h)
	m.montMul(cur, cur, m.r2l, s) // enter the domain
	for i := 0; i < windows; i++ {
		row := b.table[i*per*k : (i+1)*per*k]
		copy(row[:k], cur)
		for d := 1; d < per; d++ {
			m.montMul(row[d*k:(d+1)*k], row[(d-1)*k:d*k], cur, s)
		}
		m.montMul(cur, row[(per-1)*k:], cur, s)
	}
}
