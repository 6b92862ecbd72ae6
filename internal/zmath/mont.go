package zmath

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"
)

// Modulus is a fixed, long-lived odd modulus with every constant the
// Montgomery kernel needs precomputed once: the little-endian limb vector
// and the constants N' = -n^{-1} mod 2^64, R = 2^{64k} mod n and R^2 mod n
// (k = limb count). The crypto layers build one Modulus per long-lived
// modulus (N, N^2, p^2, q^2, N^s, N^{s+1}) at key-construction time and
// route their mul-mod chains through it.
//
// Every chain multiplies on one kernel, montMul (kernel.go), at every
// width, and stays in the Montgomery domain. A one-shot MulMod is two
// kernel calls (multiply, then un-scale by R^2) below barrettMinLimbs and
// a Barrett reduction from there. See DESIGN.md "Montgomery engine". All
// kernel temporaries come from a per-Modulus sync.Pool, so steady state
// allocates only each operation's result.
//
// A Modulus is immutable after construction and safe for concurrent use.
type Modulus struct {
	n  *big.Int
	k  int        // limb count of n
	nl []big.Word // limbs of n, little-endian
	// every op delegates to big.Int: a non-64-bit platform, or a
	// math_big_pure_go build with no kernel to link
	fallback bool

	n0inv big.Word   // -n^{-1} mod 2^64
	rl    []big.Word // R mod n: the Montgomery form of 1
	r2l   []big.Word // R^2 mod n: multiplier that enters the domain
	onel  []big.Word // plain 1, padded to k limbs (exits the domain)
	mu    *big.Int   // floor(2^{128k} / n): one-shot MulMod's Barrett constant

	// rpow[j] = R^{2^j + 1} mod n. Chaining montMul over entries for the
	// set bits of e-1 yields R^e (each montMul eats one R, so exponents
	// 2^j+1 add up to (e-1)+1): the constant-cost drift fixup that lets
	// ProdMod run one kernel call per element instead of two.
	rpow [][]big.Word

	pool sync.Pool
}

// montScratch is the per-call working set: limb vectors for the kernel
// and big.Int temporaries for input reduction and Barrett.
type montScratch struct {
	x, y, z    []big.Word
	t          []big.Word // 2k limbs: montMul's accumulator
	red1, red2 *big.Int
	prod, q    *big.Int
}

// NewModulus precomputes the reduction constants for n. It rejects nil,
// n <= 1, and even n: REDC needs n invertible mod 2^64, and every modulus
// in this codebase (N, N^2, prime squares, N^{s+1}) is odd by
// construction, so evenness always signals caller error rather than a
// case worth supporting.
func NewModulus(n *big.Int) (*Modulus, error) {
	if n == nil || n.Cmp(One) <= 0 {
		return nil, fmt.Errorf("zmath: Montgomery modulus must be > 1, got %v", n)
	}
	if n.Bit(0) == 0 {
		return nil, fmt.Errorf("zmath: Montgomery modulus must be odd (n' = -n^{-1} mod 2^64 does not exist for even n)")
	}
	m := &Modulus{n: new(big.Int).Set(n)}
	if bits.UintSize != 64 || !kernelLinked {
		// The kernel is measured and tested on 64-bit words only.
		m.fallback = true
		return m, nil
	}
	k := len(n.Bits())
	m.k = k
	m.nl = natFromBig(make([]big.Word, k), n)
	m.n0inv = negInv(m.nl[0])

	r := new(big.Int).Lsh(One, uint(64*k))
	r.Mod(r, n)
	m.rl = natFromBig(make([]big.Word, k), r)
	r2 := new(big.Int).Lsh(One, uint(128*k))
	r2.Mod(r2, n)
	m.r2l = natFromBig(make([]big.Word, k), r2)
	m.onel = natFromBig(make([]big.Word, k), One)
	m.mu = new(big.Int).Lsh(One, uint(128*k))
	m.mu.Div(m.mu, n)

	m.pool.New = func() any {
		return &montScratch{
			x:    make([]big.Word, k),
			y:    make([]big.Word, k),
			z:    make([]big.Word, k),
			t:    make([]big.Word, 2*k),
			red1: new(big.Int),
			red2: new(big.Int),
			prod: new(big.Int),
			q:    new(big.Int),
		}
	}
	s := m.pool.Get().(*montScratch)
	m.rpow = make([][]big.Word, prodMaxLog)
	m.rpow[0] = m.r2l
	for j := 1; j < prodMaxLog; j++ {
		p := make([]big.Word, k)
		m.montMul(p, m.rpow[j-1], m.rpow[j-1], s)
		m.rpow[j] = p
	}
	m.pool.Put(s)
	return m, nil
}

// prodMaxLog bounds the drift-fixup table: ProdMod chains of up to
// 2^prodMaxLog elements get the one-kernel-per-element path.
const prodMaxLog = 21

// MustModulus is NewModulus for moduli the caller constructed odd by
// definition (N^2, prime squares, ...); it panics on the error path.
func MustModulus(n *big.Int) *Modulus {
	m, err := NewModulus(n)
	if err != nil {
		panic(err)
	}
	return m
}

// N returns the modulus value. Callers must treat it as read-only.
func (m *Modulus) N() *big.Int { return m.n }

// active reports whether the limb kernel runs for this modulus.
func (m *Modulus) active() bool {
	return m != nil && !m.fallback
}

// negInv returns -n0^{-1} mod 2^64 for odd n0 by Newton iteration (each
// step doubles the number of correct low bits).
func negInv(n0 big.Word) big.Word {
	inv := n0 // 3 correct bits to start (n0 odd)
	for i := 0; i < 5; i++ {
		inv *= 2 - n0*inv
	}
	return -inv
}

// natFromBig copies x's limbs into dst (little-endian, zero-padded).
// Requires 0 <= x < 2^{64 len(dst)}.
func natFromBig(dst []big.Word, x *big.Int) []big.Word {
	clear(dst[copy(dst, x.Bits()):])
	return dst
}

// natToBig returns z's value as a fresh big.Int (on a copy of the limbs).
func natToBig(z []big.Word) *big.Int {
	return new(big.Int).SetBits(append([]big.Word(nil), z...))
}

// canon reduces x into [0, n) without mutating it, using scratch storage
// when a division is actually needed.
func (m *Modulus) canon(dst *big.Int, x *big.Int) *big.Int {
	if x.Sign() >= 0 && x.Cmp(m.n) < 0 {
		return x
	}
	return dst.Mod(x, m.n)
}

// barrettMinLimbs is the width from which a one-shot MulMod reduces by
// Barrett instead of two kernel calls. A lone product cannot stay in the
// domain, so it pays two quadratic kernel passes against Barrett's three
// math/big products, which go subquadratic from 40 limbs.
// BenchmarkMulModSweep has them tied up to 17 limbs and Barrett faster by
// 3 % at 18, 14-22 % at 24 and 32 % at 64 (EXPERIMENTS.md "One Montgomery
// kernel"). No chain uses Barrett.
const barrettMinLimbs = 18

// MulMod returns x*y mod n as a canonical residue. Inputs of any sign and
// size are accepted; values already in [0, n) take the no-division fast
// path. On the fallback it computes the same result with big.Int Mul+Mod.
func (m *Modulus) MulMod(x, y *big.Int) *big.Int {
	if !m.active() {
		out := new(big.Int).Mul(x, y)
		return out.Mod(out, m.n)
	}
	s := m.pool.Get().(*montScratch)
	xr, yr := m.canon(s.red1, x), m.canon(s.red2, y)
	var out *big.Int
	if m.k >= barrettMinLimbs {
		// t = x*y; q = floor(floor(t/b^{k-1}) * mu / b^{k+1}); t - q*n is
		// within 2n of the answer (HAC 14.42).
		t := s.prod.Mul(xr, yr)
		q := s.q.Rsh(t, uint(64*(m.k-1)))
		q.Mul(q, m.mu)
		q.Rsh(q, uint(64*(m.k+1)))
		t.Sub(t, q.Mul(q, m.n))
		for t.Cmp(m.n) >= 0 {
			t.Sub(t, m.n)
		}
		out = new(big.Int).Set(t)
	} else {
		natFromBig(s.x, xr)
		natFromBig(s.y, yr)
		// Two kernel calls: (x*y*R^{-1}) * R^2 * R^{-1} = x*y.
		m.montMul(s.z, s.x, s.y, s)
		m.montMul(s.z, s.z, m.r2l, s)
		out = natToBig(s.z)
	}
	m.pool.Put(s)
	return out
}

// ExpMod returns x^e mod n. It delegates to big.Int.Exp: for full-width
// exponents math/big runs a windowed Montgomery ladder on the same
// assembly rows as montMul, and a ladder of the engine's own only ties it.
// The engine's exponentiation wins live where the access pattern does the
// work — shared squarings in MultiExpMod and ExpModShared — not in a
// plain single-base power.
func (m *Modulus) ExpMod(x, e *big.Int) *big.Int {
	return new(big.Int).Exp(x, e, m.n)
}

// ProdMod returns xs[0]*xs[1]*...*xs[len-1] mod n (1 mod n for an empty
// product). This is the engine form of the homomorphic-sum loops — a
// batch of ciphertext additions is one ProdMod per round — and the shape
// where the kernel pays off in full: the chain runs one Montgomery
// multiply per element, letting the R^{-1} factors pile up, and cancels
// the accumulated drift with a single table-driven fixup at the end
// instead of un-scaling after every multiply.
func (m *Modulus) ProdMod(xs []*big.Int) *big.Int {
	if len(xs) == 0 {
		return new(big.Int).Mod(One, m.n)
	}
	if !m.active() || len(xs)-1 >= 1<<prodMaxLog {
		acc := new(big.Int).Mod(xs[0], m.n)
		for _, x := range xs[1:] {
			acc.Mul(acc, x)
			acc.Mod(acc, m.n)
		}
		return acc
	}
	s := m.pool.Get().(*montScratch)
	defer m.pool.Put(s)
	if len(xs) == 1 {
		return new(big.Int).Set(m.canon(s.red1, xs[0]))
	}
	natFromBig(s.x, m.canon(s.red1, xs[0]))
	for _, x := range xs[1:] {
		natFromBig(s.y, m.canon(s.red1, x))
		m.montMul(s.x, s.x, s.y, s)
	}
	// s.x = prod * R^{-(len-1)}. Build R^{len} in s.y from the rpow table
	// (montMul over entries for the set bits of len-1 yields R^{len}) and
	// one final multiply cancels the drift exactly.
	e := len(xs) - 1
	first := true
	for j := 0; e>>j != 0; j++ {
		if e>>j&1 == 0 {
			continue
		}
		if first {
			copy(s.y, m.rpow[j])
			first = false
		} else {
			m.montMul(s.y, s.y, m.rpow[j], s)
		}
	}
	m.montMul(s.x, s.x, s.y, s)
	return natToBig(s.x)
}
