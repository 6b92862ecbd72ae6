package zmath

import (
	"fmt"
	"math/big"
)

// multiExpWindow picks the Straus window width for the largest exponent:
// wider windows amortize squarings over more bases but cost 2^w - 1 table
// entries per base.
func multiExpWindow(maxBits int) uint {
	switch {
	case maxBits >= 256:
		return 5
	case maxBits >= 64:
		return 4
	case maxBits >= 16:
		return 3
	default:
		return 2
	}
}

// MultiExpMod returns the product of bases[i]^exps[i] mod n using Straus's
// interleaved ladder: all bases enter the Montgomery domain once, their
// window tables are built in-domain, and a single run of squarings is
// shared by every base — for t bases the squaring work is 1/t of t
// separate exponentiations, which is where the randomized EHL equality
// operator and the selection gadgets spend their time. Exponents must be
// non-negative (invert the base first for a negative power; the callers
// in this codebase all hold nonces or blinds, which are positive by
// construction). With the engine disabled it computes the same value as a
// plain big.Int exponentiation loop.
func (m *Modulus) MultiExpMod(bases, exps []*big.Int) (*big.Int, error) {
	if len(bases) != len(exps) {
		return nil, fmt.Errorf("zmath: MultiExpMod length mismatch %d bases vs %d exponents", len(bases), len(exps))
	}
	maxBits := 0
	for i, e := range exps {
		if e == nil || e.Sign() < 0 {
			return nil, fmt.Errorf("zmath: MultiExpMod exponent %d must be non-negative", i)
		}
		if b := e.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	if len(bases) == 0 || maxBits == 0 {
		return new(big.Int).Mod(One, m.n), nil
	}
	if !m.active() {
		acc := new(big.Int).Mod(One, m.n)
		t := new(big.Int)
		for i := range bases {
			t.Exp(bases[i], exps[i], m.n)
			acc.Mul(acc, t)
			acc.Mod(acc, m.n)
		}
		return acc, nil
	}

	w := multiExpWindow(maxBits)
	size := 1 << w
	s := m.pool.Get().(*montScratch)
	defer m.pool.Put(s)

	// Per-base in-domain window tables: tbl[i][d-1] = bases[i]^d * R.
	tbl := make([][][]big.Word, len(bases))
	for i, b := range bases {
		row := make([][]big.Word, size-1)
		ent := make([]big.Word, m.k)
		natFromBig(ent, m.canon(s.red1, b))
		m.montMul(ent, ent, m.r2l, s) // enter the domain
		row[0] = ent
		for d := 2; d < size; d++ {
			nxt := make([]big.Word, m.k)
			m.montMul(nxt, row[d-2], ent, s)
			row[d-1] = nxt
		}
		tbl[i] = row
	}

	acc := make([]big.Word, m.k)
	copy(acc, m.rl)  // Montgomery form of 1
	started := false // skip squarings while the accumulator is still 1
	windows := (maxBits + int(w) - 1) / int(w)
	for wpos := windows - 1; wpos >= 0; wpos-- {
		if started {
			for sq := 0; sq < int(w); sq++ {
				m.montMul(acc, acc, acc, s)
			}
		}
		base := wpos * int(w)
		for i, e := range exps {
			var d uint
			for b := 0; b < int(w); b++ {
				d |= uint(e.Bit(base+b)) << b
			}
			if d == 0 {
				continue
			}
			m.montMul(acc, acc, tbl[i][d-1], s)
			started = true
		}
	}
	m.montMul(acc, acc, m.onel, s) // exit the domain
	return natToBig(acc), nil
}

// sharedExpMinGroup is the smallest group of exponents ExpModShared raises
// through its shared chain whatever their width: the smallest group size
// at which the chain beat one big.Int.Exp per exponent at every width
// BenchmarkExpModShared measured (N^3 of 256- to 2048-bit keys;
// EXPERIMENTS.md "One Montgomery kernel").
const sharedExpMinGroup = 2

// loneChainMaxBits is the widest lone exponent ExpModShared raises on the
// chain: up to it the chain beat big.Int.Exp at every key size
// BenchmarkLonePowerSweep measured (N^2 of 256-, 1024- and 2048-bit keys;
// chain/big 0.41-0.91, a short blind's 62-88-bit exponents among them;
// EXPERIMENTS.md "Short blinds"), because math/big runs a word-sized
// exponent on a plain square-and-multiply with a division per step and a
// wider one behind a 16-entry window table. From 112 bits on the two tie
// within a few percent either way, and a full-width lone power takes
// big.Int.Exp.
const loneChainMaxBits = 96

// ExpModShared returns base^exps[i] mod n for every i: many powers of one
// base. From sharedExpMinGroup exponents on, and for a lone exponent of at
// most loneChainMaxBits bits, it runs Yao's method — a single in-domain
// squaring chain base^(2^(w*j)) serves every exponent, and each exponent
// then costs one multiplication per nonzero w-bit digit plus one per digit
// value (the descending-digit product), instead of a full ladder of its
// own. Exponents must be non-negative. Outputs are canonical residues,
// bit-identical to big.Int.Exp.
func (m *Modulus) ExpModShared(base *big.Int, exps []*big.Int) ([]*big.Int, error) {
	for i, e := range exps {
		if e == nil || e.Sign() < 0 {
			return nil, fmt.Errorf("zmath: ExpModShared exponent %d must be non-negative", i)
		}
	}
	if !m.active() || len(exps) < sharedExpMinGroup && (len(exps) == 0 || exps[0].BitLen() > loneChainMaxBits) {
		out := make([]*big.Int, len(exps))
		for i, e := range exps {
			out[i] = new(big.Int).Exp(base, e, m.n)
		}
		return out, nil
	}
	return m.expShared(base, exps), nil
}

// yaoWindow picks the digit width w minimizing the per-exponent cost of
// Yao's method, ceil(bits/w) digit multiplications plus 2^w - 1 for the
// descending-digit product; the shared chain costs about bits squarings
// whatever w is.
func yaoWindow(bits int) uint {
	best, bestCost := uint(1), bits+1
	for w := uint(2); w <= 8; w++ {
		if cost := (bits+int(w)-1)/int(w) + 1<<w - 1; cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best
}

// expShared is Yao's fixed-exponent-set method on an active Modulus, for
// non-negative exponents. Writing e = sum_j d_j 2^(w*j),
//
//	base^e = prod_{d >= 1} (prod_{j: d_j = d} c_j)^d,  c_j = base^(2^(w*j)),
//
// and the outer product is a running product: walking d from the top digit
// down, run multiplies in the c_j of digit d and acc multiplies in run, so
// each c_j ends up raised to its own digit.
func (m *Modulus) expShared(base *big.Int, exps []*big.Int) []*big.Int {
	maxBits := 0
	for _, e := range exps {
		if b := e.BitLen(); b > maxBits {
			maxBits = b
		}
	}
	w := yaoWindow(maxBits)
	windows := (maxBits + int(w) - 1) / int(w)
	k := m.k
	s := m.pool.Get().(*montScratch)
	defer m.pool.Put(s)

	// chain[j*k : (j+1)*k] = base^(2^(w*j)) * R: the one squaring chain.
	chain := make([]big.Word, windows*k)
	if windows > 0 {
		c0 := chain[:k]
		natFromBig(c0, m.canon(s.red1, base))
		m.montMul(c0, c0, m.r2l, s) // enter the domain
		for j := 1; j < windows; j++ {
			prev, cur := chain[(j-1)*k:j*k], chain[j*k:(j+1)*k]
			m.montMul(cur, prev, prev, s)
			for sq := 1; sq < int(w); sq++ {
				m.montMul(cur, cur, cur, s)
			}
		}
	}

	out := make([]*big.Int, len(exps))
	digits := make([]uint, windows)
	byDigit := make([]int, windows) // window indices sorted by digit, descending
	count := make([]int, 1<<w)
	acc := make([]big.Word, k)
	run := make([]big.Word, k)
	for i, e := range exps {
		for d := range count {
			count[d] = 0
		}
		for j := range digits {
			var d uint
			for b := 0; b < int(w); b++ {
				d |= e.Bit(j*int(w)+b) << b
			}
			digits[j] = d
			count[d]++
		}
		// Counting sort, top digit first: count[d] becomes the offset of
		// digit d's windows in byDigit.
		at := 0
		for d := len(count) - 1; d >= 1; d-- {
			at, count[d] = at+count[d], at
		}
		for j, d := range digits {
			if d != 0 {
				byDigit[count[d]] = j
				count[d]++
			}
		}
		// count[d] now ends digit d's run in byDigit.
		copy(acc, m.rl) // the domain's 1
		runSet, accSet := false, false
		next := 0
		for d := len(count) - 1; d >= 1; d-- {
			for ; next < count[d]; next++ {
				cj := chain[byDigit[next]*k : (byDigit[next]+1)*k]
				if runSet {
					m.montMul(run, run, cj, s)
				} else {
					copy(run, cj)
					runSet = true
				}
			}
			if !runSet {
				continue
			}
			if accSet {
				m.montMul(acc, acc, run, s)
			} else {
				copy(acc, run)
				accSet = true
			}
		}
		m.montMul(acc, acc, m.onel, s) // exit the domain
		out[i] = natToBig(acc)
	}
	return out
}

// BatchModInverseMod is BatchModInverse with the prefix and suffix chains
// on the Montgomery kernel, one kernel call per multiplication and no
// domain conversion at all. The prefix chain lets R^{-1} pile up:
// p_i = x_0...x_i * R^{-i}, so inverting p_last yields
// (x_0...x_last)^{-1} * R^last. Walking down, every kernel call eats one
// R: inv * p_{i-1} * R^{-1} is exactly x_i^{-1}, and inv * x_i * R^{-1}
// carries R^{i-1} on to the next step, reaching R^0 at x_0. A nil engine
// is an error; the fallback runs the plain implementation.
func BatchModInverseMod(xs []*big.Int, m *Modulus) ([]*big.Int, error) {
	if m == nil {
		return nil, fmt.Errorf("zmath: BatchModInverseMod requires a modulus")
	}
	if !m.active() {
		return BatchModInverse(xs, m.n)
	}
	if len(xs) == 0 {
		return nil, nil
	}
	s := m.pool.Get().(*montScratch)
	defer m.pool.Put(s)
	k, last := m.k, len(xs)-1
	x := make([]big.Word, len(xs)*k) // canonical inputs
	p := make([]big.Word, len(xs)*k) // drifted prefix products
	for i, v := range xs {
		natFromBig(x[i*k:(i+1)*k], m.canon(s.red1, v))
		if i == 0 {
			copy(p[:k], x[:k])
		} else {
			m.montMul(p[i*k:(i+1)*k], p[(i-1)*k:i*k], x[i*k:(i+1)*k], s)
		}
	}
	invB := new(big.Int).ModInverse(natToBig(p[last*k:]), m.n)
	if invB == nil {
		return nil, ErrNotInvertible
	}
	inv := natFromBig(s.z, invB)
	out := make([]*big.Int, len(xs))
	for i := last; i > 0; i-- {
		m.montMul(s.y, inv, p[(i-1)*k:i*k], s)
		out[i] = natToBig(s.y)
		m.montMul(inv, inv, x[i*k:(i+1)*k], s)
	}
	out[0] = natToBig(inv)
	return out, nil
}
