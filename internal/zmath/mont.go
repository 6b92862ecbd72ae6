package zmath

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"
)

// Modulus is a fixed, long-lived odd modulus with every constant the
// reduction kernels need precomputed once: the little-endian limb vector,
// the Montgomery constants N' = -n^{-1} mod 2^64, R = 2^{64k} mod n and
// R^2 mod n (k = limb count), and the Barrett constant mu =
// floor(2^{128k} / n). The crypto layers build one Modulus per long-lived
// modulus (N, N^2, p^2, q^2, N^s, N^{s+1}) at key-construction time and
// route their mul-mod chains through it.
//
// Strategy by operand width (see DESIGN.md "Montgomery engine"):
//
//   - k <= ciosMaxLimbs: a fused-CIOS Montgomery multiply; a one-shot
//     MulMod is two kernel calls (multiply, then un-scale by R^2).
//   - larger k: in-domain chains use a hybrid multiply (math/big's
//     assembly product + a limb REDC pass); one-shot MulMod switches to
//     Barrett reduction, because two REDC passes cost more than the
//     division they replace while Barrett's three multiplications do not.
//
// All kernel temporaries come from a per-Modulus sync.Pool, so steady
// state allocates only each operation's result.
//
// A Modulus is immutable after construction and safe for concurrent use.
type Modulus struct {
	n  *big.Int
	k  int      // limb count of n
	nl []uint64 // limbs of n, little-endian

	n0inv uint64   // -n^{-1} mod 2^64
	rl    []uint64 // R mod n: the Montgomery form of 1
	r2l   []uint64 // R^2 mod n: multiplier that enters the domain
	onel  []uint64 // plain 1, padded to k limbs (exits the domain)
	mu    *big.Int // floor(2^{128k} / n) for Barrett reduction

	// rpow[j] = R^{2^j + 1} mod n. Chaining montMul over entries for the
	// set bits of e-1 yields R^e (each montMul eats one R, so exponents
	// 2^j+1 add up to (e-1)+1): the constant-cost drift fixup that lets
	// ProdMod run one kernel call per element instead of two.
	rpow [][]uint64

	useCios bool // fused CIOS beats the hybrid below ciosMaxLimbs
	// chainKernel selects the ProdMod strategy: below chainKernelMaxLimbs
	// the montMul drift chain wins; above it the quadratic REDC pass falls
	// behind big.Int's subquadratic division and Barrett one-shots win.
	chainKernel bool
	fallback    bool // non-64-bit platform: every op delegates to big.Int

	pool sync.Pool
}

// ciosMaxLimbs is the largest limb count at which the fused CIOS kernel
// outruns the hybrid (product-then-REDC) multiply. Above it the working
// set outgrows the register file and math/big's assembly multiplier wins
// the product half. Measured crossover on amd64: CIOS 2.8x at 8 limbs,
// roughly break-even near 12, behind at 16.
const ciosMaxLimbs = 12

// chainKernelMaxLimbs is the largest width at which ProdMod's montMul
// drift chain beats a Barrett one-shot per element (measured crossover on
// amd64 between 1536 and 2048 bits).
const chainKernelMaxLimbs = 24

// montScratch is the per-call working set: limb vectors for the kernels
// and big.Int temporaries for the Barrett/hybrid paths.
type montScratch struct {
	x, y, z []uint64
	t       []uint64 // 2k+2 limbs: CIOS needs k+1, REDC 2k+1

	wa, wb []big.Word // backing stores for ba, bb (SetBits aliases them)
	ba, bb *big.Int
	prod   *big.Int
	q      *big.Int
	red1   *big.Int
	red2   *big.Int
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
	if bits.UintSize != 64 {
		// The kernels assume 64-bit limbs and big.Word == uint64.
		// On other platforms every operation takes the big.Int path.
		m.fallback = true
		return m, nil
	}
	k := (n.BitLen() + 63) / 64
	m.k = k
	m.nl = natFromBig(make([]uint64, k), n)
	m.n0inv = negInvMod64(m.nl[0])
	m.useCios = k <= ciosMaxLimbs
	m.chainKernel = k <= chainKernelMaxLimbs

	r := new(big.Int).Lsh(One, uint(64*k))
	r.Mod(r, n)
	m.rl = natFromBig(make([]uint64, k), r)
	r2 := new(big.Int).Lsh(One, uint(128*k))
	r2.Mod(r2, n)
	m.r2l = natFromBig(make([]uint64, k), r2)
	m.onel = natFromBig(make([]uint64, k), One)
	m.mu = new(big.Int).Lsh(One, uint(128*k))
	m.mu.Div(m.mu, n)

	m.pool.New = func() any {
		return newMontScratch(k)
	}
	s := m.pool.Get().(*montScratch)
	m.rpow = make([][]uint64, prodMaxLog)
	m.rpow[0] = m.r2l
	for j := 1; j < prodMaxLog; j++ {
		p := make([]uint64, k)
		m.montMul(p, m.rpow[j-1], m.rpow[j-1], s)
		m.rpow[j] = p
	}
	m.pool.Put(s)
	return m, nil
}

// prodMaxLog bounds the drift-fixup table: ProdMod chains of up to
// 2^prodMaxLog elements get the one-kernel-per-element path.
const prodMaxLog = 21

func newMontScratch(k int) *montScratch {
	return &montScratch{
		x:    make([]uint64, k),
		y:    make([]uint64, k),
		z:    make([]uint64, k),
		t:    make([]uint64, 2*k+2),
		wa:   make([]big.Word, k),
		wb:   make([]big.Word, k),
		ba:   new(big.Int),
		bb:   new(big.Int),
		prod: new(big.Int),
		q:    new(big.Int),
		red1: new(big.Int),
		red2: new(big.Int),
	}
}

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

// active reports whether the limb kernels run for this modulus.
func (m *Modulus) active() bool {
	return m != nil && !m.fallback
}

// natFromBig copies x's limbs into dst (little-endian, zero-padded).
// Requires 0 <= x < 2^{64 len(dst)}.
func natFromBig(dst []uint64, x *big.Int) []uint64 {
	for i := range dst {
		dst[i] = 0
	}
	for i, w := range x.Bits() {
		dst[i] = uint64(w)
	}
	return dst
}

// natToBig returns z's value as a fresh big.Int.
func natToBig(z []uint64) *big.Int {
	words := make([]big.Word, len(z))
	for i, w := range z {
		words[i] = big.Word(w)
	}
	return new(big.Int).SetBits(words)
}

// setBigFromNat points dst at the limb vector using the caller-owned word
// buffer as backing store (no allocation).
func setBigFromNat(dst *big.Int, buf []big.Word, z []uint64) *big.Int {
	for i, w := range z {
		buf[i] = big.Word(w)
	}
	return dst.SetBits(buf)
}

// canon reduces x into [0, n) without mutating it, using scratch storage
// when a division is actually needed.
func (m *Modulus) canon(dst *big.Int, x *big.Int) *big.Int {
	if x.Sign() >= 0 && x.Cmp(m.n) < 0 {
		return x
	}
	return dst.Mod(x, m.n)
}

// montMul runs one Montgomery multiply z = x*y*R^{-1} mod n on reduced
// limb vectors, choosing the kernel by width.
func (m *Modulus) montMul(z, x, y []uint64, s *montScratch) {
	if m.useCios {
		ciosMul(z, x, y, m.nl, m.n0inv, s.t)
		return
	}
	// Hybrid: let math/big's assembly multiplier build the double-width
	// product, then strip the R factor with a limb REDC pass.
	setBigFromNat(s.ba, s.wa, x)
	setBigFromNat(s.bb, s.wb, y)
	s.prod.Mul(s.ba, s.bb)
	t := s.t[:2*m.k+1]
	for i := range t {
		t[i] = 0
	}
	for i, w := range s.prod.Bits() {
		t[i] = uint64(w)
	}
	redc(z, m.nl, m.n0inv, t)
}

// MulMod returns x*y mod n as a canonical residue. Inputs of any sign and
// size are accepted; values already in [0, n) take the no-division fast
// path. With the engine disabled (or on 32-bit platforms) it computes the
// same result with big.Int Mul+Mod.
func (m *Modulus) MulMod(x, y *big.Int) *big.Int {
	if !m.active() {
		out := new(big.Int).Mul(x, y)
		return out.Mod(out, m.n)
	}
	s := m.pool.Get().(*montScratch)
	out := m.mulModInto(new(big.Int), x, y, s)
	m.pool.Put(s)
	return out
}

// mulModInto is MulMod with caller-provided result and scratch, used by
// the chain operations to keep steady state allocation-free.
func (m *Modulus) mulModInto(out *big.Int, x, y *big.Int, s *montScratch) *big.Int {
	xr := m.canon(s.red1, x)
	yr := m.canon(s.red2, y)
	if m.useCios {
		natFromBig(s.x, xr)
		natFromBig(s.y, yr)
		// Two kernel calls: (x*y*R^{-1}) * R^2 * R^{-1} = x*y.
		m.montMul(s.z, s.x, s.y, s)
		m.montMul(s.z, s.z, m.r2l, s)
		return setFromNat(out, s.z)
	}
	// Barrett: t = x*y; q = floor(floor(t/b^{k-1}) * mu / b^{k+1});
	// r = t - q*n is within 2n of the answer (HAC 14.42).
	t := s.prod.Mul(xr, yr)
	q := s.q.Rsh(t, uint(64*(m.k-1)))
	q.Mul(q, m.mu)
	q.Rsh(q, uint(64*(m.k+1)))
	q.Mul(q, m.n)
	t.Sub(t, q)
	for t.Cmp(m.n) >= 0 {
		t.Sub(t, m.n)
	}
	return out.Set(t)
}

// setFromNat copies a limb vector into an existing big.Int.
func setFromNat(dst *big.Int, z []uint64) *big.Int {
	words := make([]big.Word, len(z))
	for i, w := range z {
		words[i] = big.Word(w)
	}
	return dst.SetBits(words)
}

// ExpMod returns x^e mod n. It delegates to big.Int.Exp: for full-width
// exponents math/big already runs an assembly Montgomery ladder
// internally, and a pure-Go REDC ladder cannot beat it. The engine's
// exponentiation wins live where the access pattern does the work —
// shared squarings in MultiExpMod and the in-domain FixedBaseTable —
// not in a plain single-base power.
func (m *Modulus) ExpMod(x, e *big.Int) *big.Int {
	return new(big.Int).Exp(x, e, m.n)
}

// ProdMod returns xs[0]*xs[1]*...*xs[len-1] mod n (1 mod n for an empty
// product). This is the engine form of the homomorphic-sum loops — a
// batch of ciphertext additions is one ProdMod per round — and the shape
// where the kernels pay off in full: the chain runs one Montgomery
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
	if !m.chainKernel {
		acc := new(big.Int).Set(m.canon(s.red1, xs[0]))
		for _, x := range xs[1:] {
			m.mulModInto(acc, acc, x, s)
		}
		return acc
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
