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
	tbl := make([][][]uint64, len(bases))
	for i, b := range bases {
		row := make([][]uint64, size-1)
		ent := make([]uint64, m.k)
		natFromBig(ent, m.canon(s.red1, b))
		m.montMul(ent, ent, m.r2l, s) // enter the domain
		row[0] = ent
		for d := 2; d < size; d++ {
			nxt := make([]uint64, m.k)
			m.montMul(nxt, row[d-2], ent, s)
			row[d-1] = nxt
		}
		tbl[i] = row
	}

	acc := make([]uint64, m.k)
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
// through its shared chain: the smallest group size at which the chain beat
// one big.Int.Exp per exponent at every width BenchmarkExpModShared
// measured (N^3 of 256- to 2048-bit keys; EXPERIMENTS.md). Smaller groups
// take big.Int.Exp, whose assembly ladder wins when there is no squaring
// chain to share.
const sharedExpMinGroup = 3

// ExpModShared returns base^exps[i] mod n for every i: many powers of one
// base. From sharedExpMinGroup exponents on it runs Yao's method — a single
// in-domain squaring chain base^(2^(w*j)) serves every exponent, and each
// exponent then costs one multiplication per nonzero w-bit digit plus one
// per digit value (the descending-digit product), instead of a full ladder
// of its own. Exponents must be non-negative. Outputs are canonical
// residues, bit-identical to big.Int.Exp.
func (m *Modulus) ExpModShared(base *big.Int, exps []*big.Int) ([]*big.Int, error) {
	for i, e := range exps {
		if e == nil || e.Sign() < 0 {
			return nil, fmt.Errorf("zmath: ExpModShared exponent %d must be non-negative", i)
		}
	}
	if !m.active() || len(exps) < sharedExpMinGroup {
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
	chain := make([]uint64, windows*k)
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
	acc := make([]uint64, k)
	run := make([]uint64, k)
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

// BatchModInverseMod is BatchModInverse with the prefix/suffix product
// chains routed through a precomputed Modulus, so the 3(len-1)
// multiplications of the batch trick stop paying the division tax. A nil
// engine falls back to the plain implementation.
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
	prefix := make([]*big.Int, len(xs))
	prefix[0] = new(big.Int).Set(m.canon(s.red1, xs[0]))
	for i := 1; i < len(xs); i++ {
		prefix[i] = m.mulModInto(new(big.Int), prefix[i-1], xs[i], s)
	}
	inv := new(big.Int).ModInverse(prefix[len(xs)-1], m.n)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	out := make([]*big.Int, len(xs))
	for i := len(xs) - 1; i > 0; i-- {
		out[i] = m.mulModInto(new(big.Int), inv, prefix[i-1], s)
		m.mulModInto(inv, inv, xs[i], s)
	}
	out[0] = inv
	return out, nil
}
