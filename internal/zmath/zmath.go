// Package zmath provides small number-theoretic helpers shared by the
// Paillier and Damgård-Jurik implementations and by the two-party
// protocols: uniform sampling in Z_N and Z*_N, the signed interpretation
// of residues used for encrypted comparisons, and checked modular inverses.
package zmath

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common small constants. Callers must treat these as read-only.
var (
	Zero = big.NewInt(0)
	One  = big.NewInt(1)
	Two  = big.NewInt(2)
)

// ErrNotInvertible is returned when a modular inverse does not exist.
var ErrNotInvertible = errors.New("zmath: element is not invertible")

// RandInt returns a uniform random integer in [0, n).
func RandInt(rnd io.Reader, n *big.Int) (*big.Int, error) {
	if n.Sign() <= 0 {
		return nil, fmt.Errorf("zmath: RandInt bound must be positive, got %v", n)
	}
	return rand.Int(rnd, n)
}

// RandRange returns a uniform random integer in [lo, hi).
func RandRange(rnd io.Reader, lo, hi *big.Int) (*big.Int, error) {
	if lo.Cmp(hi) >= 0 {
		return nil, fmt.Errorf("zmath: RandRange empty range [%v, %v)", lo, hi)
	}
	width := new(big.Int).Sub(hi, lo)
	r, err := rand.Int(rnd, width)
	if err != nil {
		return nil, err
	}
	return r.Add(r, lo), nil
}

// RandUnit returns a uniform random element of Z*_n (invertible mod n).
// For an RSA-style modulus n = pq with large primes, the expected number
// of retries is negligible.
func RandUnit(rnd io.Reader, n *big.Int) (*big.Int, error) {
	if n.Cmp(Two) < 0 {
		return nil, fmt.Errorf("zmath: RandUnit modulus must be >= 2, got %v", n)
	}
	gcd := new(big.Int)
	for i := 0; i < 128; i++ {
		r, err := rand.Int(rnd, n)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if gcd.GCD(nil, nil, r, n); gcd.Cmp(One) == 0 {
			return r, nil
		}
	}
	return nil, errors.New("zmath: RandUnit failed to find an invertible element")
}

// ModInverse returns a^{-1} mod n, or ErrNotInvertible when gcd(a, n) != 1.
func ModInverse(a, n *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(a, n)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	return inv, nil
}

// Signed maps a residue v in [0, n) to its signed representative in
// (-n/2, n/2]. This is the convention under which the dedup sentinel
// Z = n-1 reads as -1 and sinks below every non-negative score.
func Signed(v, n *big.Int) *big.Int {
	out := new(big.Int).Mod(v, n)
	half := new(big.Int).Rsh(n, 1)
	if out.Cmp(half) > 0 {
		out.Sub(out, n)
	}
	return out
}

// IsNegative reports whether the residue v in [0, n) represents a negative
// value under the signed interpretation.
func IsNegative(v, n *big.Int) bool {
	return Signed(v, n).Sign() < 0
}

// Lcm returns lcm(a, b).
func Lcm(a, b *big.Int) *big.Int {
	gcd := new(big.Int).GCD(nil, nil, a, b)
	out := new(big.Int).Div(a, gcd)
	return out.Mul(out, b)
}

// CRTPair combines residues (a mod p, b mod q) for coprime p, q into the
// unique residue mod p*q using precomputed pInvModQ = p^{-1} mod q.
func CRTPair(a, b, p, q, pInvModQ *big.Int) *big.Int {
	// x = a + p * ((b - a) * pInv mod q)
	t := new(big.Int).Sub(b, a)
	t.Mul(t, pInvModQ)
	t.Mod(t, q)
	t.Mul(t, p)
	return t.Add(t, a)
}

// Factorial returns k! as a big.Int. Used by the Damgård-Jurik plaintext
// extraction, where k stays tiny (k <= s).
func Factorial(k int) *big.Int {
	out := big.NewInt(1)
	for i := 2; i <= k; i++ {
		out.Mul(out, big.NewInt(int64(i)))
	}
	return out
}

// SampleSubgroupPower draws a uniform element of the image of the
// e-power map on Z*_m for a prime-power modulus m = prime^k: sample a
// uniform unit s (a non-unit appears only with probability 1/prime, so
// the retry loop is all but dead code) and return s^e mod m. The crypto
// layers use it to sample nonce powers directly from the N-th-residue
// subgroup's CRT components.
func SampleSubgroupPower(rnd io.Reader, m, prime, e *big.Int) (*big.Int, error) {
	for i := 0; i < 128; i++ {
		s, err := RandInt(rnd, m)
		if err != nil {
			return nil, err
		}
		if s.Sign() == 0 || new(big.Int).Mod(s, prime).Sign() == 0 {
			continue
		}
		return new(big.Int).Exp(s, e, m), nil
	}
	return nil, errors.New("zmath: subgroup sampling failed to find a unit")
}

// BatchModInverse computes xs[i]^{-1} mod n for every element with a
// single modular inversion plus 3(len-1) multiplications (Montgomery's
// batch-inversion trick): prefix products are accumulated forward, the
// running product is inverted once, and the individual inverses fall out
// walking backward. Inversions mod an RSA-sized modulus cost tens of
// multiplications, so for the per-ciphertext unblinding loops this is a
// large constant-factor win. Returns ErrNotInvertible if any element
// shares a factor with n (the error does not identify which, matching the
// all-or-nothing usage in the protocols).
func BatchModInverse(xs []*big.Int, n *big.Int) ([]*big.Int, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	// prefix[i] = xs[0] * ... * xs[i] mod n
	prefix := make([]*big.Int, len(xs))
	acc := new(big.Int).Mod(xs[0], n)
	prefix[0] = acc
	for i := 1; i < len(xs); i++ {
		acc = new(big.Int).Mul(acc, xs[i])
		acc.Mod(acc, n)
		prefix[i] = acc
	}
	inv := new(big.Int).ModInverse(prefix[len(xs)-1], n)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	out := make([]*big.Int, len(xs))
	for i := len(xs) - 1; i > 0; i-- {
		// inv currently holds (xs[0]*...*xs[i])^{-1}.
		out[i] = new(big.Int).Mul(inv, prefix[i-1])
		out[i].Mod(out[i], n)
		inv.Mul(inv, xs[i])
		inv.Mod(inv, n)
	}
	out[0] = inv
	return out, nil
}

// FixedBaseTable precomputes the 2^w-ary fixed-base exponentiation table
// for one (base, modulus) pair: entries base^(i * 2^(w*j)) mod m for every
// window j below maxBits/w and every window value i in [1, 2^w). Exp then
// needs only one multiplication per nonzero window — about maxBits/w
// multiplications and no squarings — versus the ~1.5*|e| multiplications
// of a square-and-multiply ladder. Build cost is one table (~maxBits/w *
// 2^w multiplications), amortized when the same base is exponentiated many
// times, which is exactly the fast-nonce workload: one fixed base h^N per
// key, thousands of short exponents per query.
//
// The table is read-only after construction and safe for concurrent Exp
// calls.
type FixedBaseTable struct {
	m       *big.Int
	window  uint
	maxBits int
	// pow[j][i-1] = base^(i << (window*j)) mod m
	pow [][]*big.Int

	// Montgomery acceleration (optional): with an engine attached the
	// same entries are also stored in Montgomery form, so Exp runs the
	// whole per-window multiplication chain in-domain — one REDC multiply
	// per nonzero window, one exit at the end, and no divisions at all.
	mod *Modulus
	// powMont[j][i-1] = pow[j][i-1] * R mod m
	powMont [][][]big.Word
}

// NewFixedBaseTable builds the table for exponents up to maxBits bits.
// window must be in [1, 16]; 6 is a good default for 256..512-bit
// exponents.
func NewFixedBaseTable(base, m *big.Int, window uint, maxBits int) (*FixedBaseTable, error) {
	return newFixedBaseTable(base, m, nil, window, maxBits)
}

// NewFixedBaseTableMod is NewFixedBaseTable with a precomputed Modulus:
// the table keeps its entries in Montgomery form alongside the plain
// ones, and Exp multiplies in-domain whenever the engine is active. mod
// must satisfy mod.N() == m's value.
func NewFixedBaseTableMod(base *big.Int, mod *Modulus, window uint, maxBits int) (*FixedBaseTable, error) {
	if mod == nil {
		return nil, fmt.Errorf("zmath: fixed-base table requires a modulus engine")
	}
	return newFixedBaseTable(base, mod.N(), mod, window, maxBits)
}

func newFixedBaseTable(base, m *big.Int, mod *Modulus, window uint, maxBits int) (*FixedBaseTable, error) {
	if m == nil || m.Cmp(Two) < 0 {
		return nil, fmt.Errorf("zmath: fixed-base modulus must be >= 2")
	}
	if base == nil || base.Sign() <= 0 {
		return nil, fmt.Errorf("zmath: fixed-base base must be positive")
	}
	if window < 1 || window > 16 {
		return nil, fmt.Errorf("zmath: fixed-base window %d out of range [1,16]", window)
	}
	if maxBits < 1 {
		return nil, fmt.Errorf("zmath: fixed-base maxBits must be positive, got %d", maxBits)
	}
	windows := (maxBits + int(window) - 1) / int(window)
	t := &FixedBaseTable{
		m:       new(big.Int).Set(m),
		window:  window,
		maxBits: maxBits,
		pow:     make([][]*big.Int, windows),
	}
	size := 1 << window
	// g walks base^(2^(w*j)) across windows; each row is filled by
	// repeated multiplication with the row's generator.
	g := new(big.Int).Mod(base, m)
	for j := 0; j < windows; j++ {
		row := make([]*big.Int, size-1)
		row[0] = new(big.Int).Set(g)
		for i := 2; i < size; i++ {
			prev := row[i-2]
			e := new(big.Int).Mul(prev, g)
			row[i-1] = e.Mod(e, m)
		}
		t.pow[j] = row
		if j+1 < windows {
			// Advance the generator: g <- g^(2^w).
			next := new(big.Int).Mul(row[size-2], g)
			g = next.Mod(next, m)
		}
	}
	if mod.active() {
		t.mod = mod
		t.powMont = make([][][]big.Word, windows)
		s := mod.pool.Get().(*montScratch)
		for j, row := range t.pow {
			mrow := make([][]big.Word, len(row))
			for i, e := range row {
				ent := natFromBig(make([]big.Word, mod.k), e)
				mod.montMul(ent, ent, mod.r2l, s) // enter the domain once
				mrow[i] = ent
			}
			t.powMont[j] = mrow
		}
		mod.pool.Put(s)
	}
	return t, nil
}

// MaxBits returns the largest exponent bit length the table supports.
func (t *FixedBaseTable) MaxBits() int { return t.maxBits }

// Exp returns base^e mod m for 0 <= e < 2^maxBits, using one table lookup
// and multiplication per nonzero window of e.
func (t *FixedBaseTable) Exp(e *big.Int) (*big.Int, error) {
	if e == nil || e.Sign() < 0 {
		return nil, fmt.Errorf("zmath: fixed-base exponent must be non-negative")
	}
	if e.BitLen() > t.maxBits {
		return nil, fmt.Errorf("zmath: fixed-base exponent %d bits exceeds table limit %d", e.BitLen(), t.maxBits)
	}
	if t.mod.active() {
		return t.expMont(e), nil
	}
	out := big.NewInt(1)
	mask := uint(1<<t.window) - 1
	bits := e.BitLen()
	for j := 0; j*int(t.window) < bits; j++ {
		// Extract window j of the exponent.
		var idx uint
		base := j * int(t.window)
		for b := 0; b < int(t.window); b++ {
			idx |= uint(e.Bit(base+b)) << b
		}
		idx &= mask
		if idx == 0 {
			continue
		}
		out.Mul(out, t.pow[j][idx-1])
		out.Mod(out, t.m)
	}
	return out, nil
}

// expMont is the Montgomery-domain window chain: the table entries are
// pre-entered, the accumulator starts at the domain's 1 (R mod m), and
// only the final exit multiply leaves the domain. Outputs are canonical
// residues, bit-identical to the plain path.
func (t *FixedBaseTable) expMont(e *big.Int) *big.Int {
	mod := t.mod
	s := mod.pool.Get().(*montScratch)
	acc := make([]big.Word, mod.k)
	copy(acc, mod.rl)
	mask := uint(1<<t.window) - 1
	bits := e.BitLen()
	for j := 0; j*int(t.window) < bits; j++ {
		var idx uint
		base := j * int(t.window)
		for b := 0; b < int(t.window); b++ {
			idx |= uint(e.Bit(base+b)) << b
		}
		idx &= mask
		if idx == 0 {
			continue
		}
		mod.montMul(acc, acc, t.powMont[j][idx-1], s)
	}
	mod.montMul(acc, acc, mod.onel, s)
	mod.pool.Put(s)
	return natToBig(acc)
}
