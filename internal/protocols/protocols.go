// Package protocols implements the S1 side of the paper's two-party
// sub-protocols (Section 8.2 and Section 10): EncCompare, the hidden-bit
// gadget every oblivious choice goes through (in place of Algorithm 5's
// double layer), SecWorst, SecBest, SecDedup/SecDupElim, SecUpdate,
// EncSelectTop (EncSort's ranking: Batcher's network or top-k selection
// passes), SecMult, and SecFilter.
//
// All functions drive the crypto cloud S2 through a cloud.Client; every
// value S2 sees is blinded and/or permuted first.
package protocols

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/zmath"
)

// Score column conventions for Item.Scores used by the query engine.
const (
	// ColWorst is the accumulated worst (lower-bound) score W.
	ColWorst = 0
	// ColBest is the best (upper-bound) score B.
	ColBest = 1
)

// Item is an encrypted scored item E(I) = (EHL(o), Enc(W), Enc(B), ...):
// an encrypted object id plus one or more encrypted score columns.
type Item struct {
	EHL    *ehl.List
	Scores []*paillier.Ciphertext
}

// Clone deep-copies the item.
func (it Item) Clone() Item {
	out := Item{EHL: it.EHL.Clone(), Scores: make([]*paillier.Ciphertext, len(it.Scores))}
	for i, s := range it.Scores {
		out.Scores[i] = s.Clone()
	}
	return out
}

// Validate checks the item's shape.
func (it Item) Validate(cols int) error {
	if it.EHL == nil || len(it.EHL.Cts) == 0 {
		return errors.New("protocols: item missing EHL")
	}
	if len(it.Scores) != cols {
		return fmt.Errorf("protocols: item has %d score columns, want %d", len(it.Scores), cols)
	}
	for i, s := range it.Scores {
		if s == nil || s.C == nil {
			return fmt.Errorf("protocols: item score column %d is nil", i)
		}
	}
	return nil
}

// subAll returns Enc(a_i - b_i) for every pair. All the inverses come from
// one Montgomery batch inversion (1 inversion + 3 mults per ciphertext
// instead of an extended-GCD each).
func subAll(pk *paillier.PublicKey, as, bs []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	vals := make([]*big.Int, len(bs))
	for i, b := range bs {
		vals[i] = b.C
	}
	invs, err := zmath.BatchModInverseMod(vals, pk.EngineN2())
	if err != nil {
		return nil, fmt.Errorf("protocols: batch inversion: %w", err)
	}
	out := make([]*paillier.Ciphertext, len(as))
	for i, a := range as {
		if out[i], err = pk.Add(a, &paillier.Ciphertext{C: invs[i]}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ApplyBits is the one hidden-bit gadget every oblivious choice goes
// through. Bit k is read by S2 from its group of tests
// tests[k*group : (k+1)*group] — the zero tests of EHL differences under
// cloud.MethodEqBits, t_k = 1 iff any is zero, or the sign of one masked
// difference under cloud.MethodCompareHidden (group 1) — and scales the
// width payloads pay[k*width : (k+1)*width]. For each payload Enc(d) it
// returns Enc(t_k*d), in the order given: with a choice between c0 and c1
// a caller passes d = c1 - c0 and adds c0 back, for new = c0 + t*(c1 - c0).
//
// S1 sends every payload as Enc(d + r) with a fresh pooled Enc(r) of a
// known r, so it carries a nonce power S2 has never seen; S2 answers
// Enc(t) and Enc(t*(d + r)) re-randomized (cloud.Server.gadget), and S1
// takes the blind off as Enc(t*(d + r)) * Enc(t)^(N-r) = Enc(t*d). A
// uniform unit would hide d as well, but S1 must know r to unblind. One
// squaring chain of Enc(t) serves all of the bit's width exponents, and
// the bits fan out over GOMAXPROCS workers. Equality bits go to S2 under
// a fresh random permutation, each with its tests and its payloads
// (Algorithm 4 line 2; SecJoin's Algorithm 11 line 3), so S2 sees the
// pattern of bits but not which pair or row a bit belongs to. Comparison
// bits keep the caller's order, which is the public gate schedule: S1's
// sign flip already makes each one uniform.
func ApplyBits(ctx context.Context, c *cloud.Client, method string, group, width int, tests, pay []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if group < 1 || width < 1 || len(tests)%group != 0 || len(pay) != width*(len(tests)/group) {
		return nil, fmt.Errorf("protocols: %d tests and %d payloads for hidden bits of %d tests and width %d", len(tests), len(pay), group, width)
	}
	n := len(tests) / group
	if n == 0 {
		return nil, nil
	}
	pk := c.PK()
	// at[k] is where bit k travels on the wire.
	at := make([]int, n)
	for k := range at {
		at[k] = k
	}
	if method == cloud.MethodEqBits {
		var err error
		if at, err = prf.RandomPerm(n); err != nil {
			return nil, err
		}
	}
	wireTests := make([]*paillier.Ciphertext, len(tests))
	for x, test := range tests {
		if test == nil || test.C == nil {
			return nil, fmt.Errorf("protocols: hidden bit %d has no test ciphertext %d", x/group, x%group)
		}
		wireTests[at[x/group]*group+x%group] = test
	}
	blinded, exps, err := blindPayloads(ctx, c, pay)
	if err != nil {
		return nil, err
	}
	bits, out, err := c.Gadget(ctx, method, group, width, wireTests, permuteItems(blinded, width, at))
	if err != nil {
		return nil, err
	}
	res := make([]*paillier.Ciphertext, len(pay))
	err = parallel.ForEachCtx(ctx, n, func(k int) error {
		return unblindScaled(pk, bits[at[k]].C, out[at[k]*width:(at[k]+1)*width], exps[k*width:(k+1)*width], res[k*width:(k+1)*width])
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyMatrix runs one round of the gadget over an R×C matrix of
// equality tests, cells[r*C + c] the zero test of row r against column
// c, where both sides are deduplicated so that each row and each column
// matches at most once. A row's bit is t_r = Σ_c t_rc and a column's
// t_c = Σ_r t_rc. For row r it returns, in order, Enc(t_r*d) for each of
// its rows.Width - rows.Cross scaled payloads d, then for each of the
// cols.Cross crossing column payloads Enc(Σ_c t_rc*d_c), the payload of
// the column it matches or zero; for each column the same the other way
// round. Payloads that depend on one side only thus travel once per item,
// not once per (row, column) pair.
//
// Every payload is blinded with a fresh pooled Enc(r), as in ApplyBits,
// and rows and columns go to S2 under fresh random permutations of their
// own: a matrix with at most one match per row and column, so permuted,
// shows S2 only its number of matches, what a permuted list of the pair
// bits shows. S1 multiplies Enc(t_r) out of its row's cells, takes the
// blinds off the scaled payloads with one squaring chain of it, and off
// each crossing sum with one multi-exponentiation, Π_c Enc(t_rc)^(N-r_c).
func ApplyMatrix(ctx context.Context, c *cloud.Client, cells []*paillier.Ciphertext, rows, cols cloud.MatrixSide) (rowOut, colOut []*paillier.Ciphertext, err error) {
	R, C := rows.Items, cols.Items
	if err := rows.Validate(); err != nil {
		return nil, nil, err
	}
	if err := cols.Validate(); err != nil {
		return nil, nil, err
	}
	if len(cells) != R*C {
		return nil, nil, fmt.Errorf("protocols: %d cells for a %d×%d matrix", len(cells), R, C)
	}
	pk := c.PK()
	// atR[r] and atC[c] are where row r and column c travel on the wire.
	atR, err := prf.RandomPerm(R)
	if err != nil {
		return nil, nil, err
	}
	atC, err := prf.RandomPerm(C)
	if err != nil {
		return nil, nil, err
	}
	wireCells := make([]*paillier.Ciphertext, len(cells))
	for x, cell := range cells {
		if cell == nil || cell.C == nil {
			return nil, nil, fmt.Errorf("protocols: matrix cell (%d, %d) has no test ciphertext", x/C, x%C)
		}
		wireCells[atR[x/C]*C+atC[x%C]] = cell
	}
	rowBlind, rowExps, err := blindPayloads(ctx, c, rows.Pay)
	if err != nil {
		return nil, nil, err
	}
	colBlind, colExps, err := blindPayloads(ctx, c, cols.Pay)
	if err != nil {
		return nil, nil, err
	}
	wireRows, wireCols := rows, cols
	wireRows.Pay, wireCols.Pay = permuteItems(rowBlind, rows.Width, atR), permuteItems(colBlind, cols.Width, atC)
	bits, rowReply, colReply, err := c.Matrix(ctx, wireCells, wireRows, wireCols)
	if err != nil {
		return nil, nil, err
	}
	rowW, colW := rows.Width-rows.Cross+cols.Cross, cols.Width-cols.Cross+rows.Cross
	rowOut, colOut = make([]*paillier.Ciphertext, R*rowW), make([]*paillier.Ciphertext, C*colW)
	// Item i < R is row i, item R + c column c, each with its cells
	// Enc(t_rc) in the caller's order.
	err = parallel.ForEachCtx(ctx, R+C, func(i int) error {
		if i < R {
			mine := make([]*big.Int, C)
			for j := range mine {
				mine[j] = bits[atR[i]*C+atC[j]].C
			}
			return unblindItem(pk, mine, rows, cols, rowExps[i*rows.Width:(i+1)*rows.Width], colExps,
				rowReply[atR[i]*rowW:(atR[i]+1)*rowW], rowOut[i*rowW:(i+1)*rowW])
		}
		col := i - R
		mine := make([]*big.Int, R)
		for j := range mine {
			mine[j] = bits[atR[j]*C+atC[col]].C
		}
		return unblindItem(pk, mine, cols, rows, colExps[col*cols.Width:(col+1)*cols.Width], rowExps,
			colReply[atC[col]*colW:(atC[col]+1)*colW], colOut[col*colW:(col+1)*colW])
	})
	if err != nil {
		return nil, nil, err
	}
	return rowOut, colOut, nil
}

// unblindItem takes the blinds off one matrix item's answers got into
// out, given its cells Enc(t_ij) against every item j of the other side:
// its scaled payloads (exps, N - r per payload of its own) under its bit,
// the product of its cells, on one squaring chain, and the sum crossing
// from each of the other side's crossing slots under
// Π_j Enc(t_ij)^(N - r_j), one multi-exponentiation.
func unblindItem(pk *paillier.PublicKey, cells []*big.Int, self, other cloud.MatrixSide, exps, otherExps []*big.Int, got, out []*paillier.Ciphertext) error {
	scaled := self.Width - self.Cross
	if scaled > 0 {
		bit := pk.EngineN2().ProdMod(cells)
		if err := unblindScaled(pk, bit, got[:scaled], exps[:scaled], out[:scaled]); err != nil {
			return err
		}
	}
	blinds := make([]*big.Int, len(cells))
	for s := 0; s < other.Cross; s++ {
		for j := range blinds {
			blinds[j] = otherExps[j*other.Width+other.Width-other.Cross+s]
		}
		p, err := pk.EngineN2().MultiExpMod(cells, blinds)
		if err != nil {
			return err
		}
		if out[scaled+s], err = pk.Add(got[scaled+s], &paillier.Ciphertext{C: p}); err != nil {
			return err
		}
	}
	return nil
}

// blindPayloads returns Enc(d + r) for every payload Enc(d), each r fresh
// under a fresh pooled Enc(r), and beside it N - r, the exponent that
// takes the blind off whatever bit b S2 applied:
// Enc(b*(d + r)) * Enc(b)^(N-r) = Enc(b*d).
func blindPayloads(ctx context.Context, c *cloud.Client, pay []*paillier.Ciphertext) (blinded []*paillier.Ciphertext, exps []*big.Int, err error) {
	pk := c.PK()
	blinded, exps = make([]*paillier.Ciphertext, len(pay)), make([]*big.Int, len(pay))
	err = parallel.ForEachCtx(ctx, len(pay), func(x int) error {
		d := pay[x]
		if d == nil || d.C == nil {
			return fmt.Errorf("protocols: hidden-bit payload %d is nil", x)
		}
		r, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return err
		}
		blind, err := c.Enc().Encrypt(r)
		if err != nil {
			return err
		}
		if blinded[x], err = pk.Add(d, blind); err != nil {
			return err
		}
		exps[x] = r.Sub(pk.N, r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return blinded, exps, nil
}

// unblindScaled sets out[s] = got[s] * bit^exps[s], the powers from one
// squaring chain of the bit.
func unblindScaled(pk *paillier.PublicKey, bit *big.Int, got []*paillier.Ciphertext, exps []*big.Int, out []*paillier.Ciphertext) error {
	powers, err := pk.EngineN2().ExpModShared(bit, exps)
	if err != nil {
		return err
	}
	for s, p := range powers {
		if out[s], err = pk.Add(got[s], &paillier.Ciphertext{C: p}); err != nil {
			return err
		}
	}
	return nil
}

// permuteItems moves item i's width payloads to where at[i] says.
func permuteItems(pay []*paillier.Ciphertext, width int, at []int) []*paillier.Ciphertext {
	out := make([]*paillier.Ciphertext, len(pay))
	for x, p := range pay {
		out[at[x/width]*width+x%width] = p
	}
	return out
}

// SecMult computes Enc(a_i * b_i) for each pair using the standard
// additively blinded two-party multiplication: S1 sends Enc(a+r_a),
// Enc(b+r_b); S2 returns Enc((a+r_a)(b+r_b)); S1 strips the cross terms
// homomorphically. One round for the whole batch.
func SecMult(ctx context.Context, c *cloud.Client, as, bs []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("protocols: SecMult length mismatch %d vs %d", len(as), len(bs))
	}
	if len(as) == 0 {
		return nil, nil
	}
	pk := c.PK()
	blindedA := make([]*paillier.Ciphertext, len(as))
	blindedB := make([]*paillier.Ciphertext, len(as))
	ras := make([]*big.Int, len(as))
	rbs := make([]*big.Int, len(as))
	err := parallel.ForEachCtx(ctx, len(as), func(i int) error {
		ra, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return err
		}
		rb, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return err
		}
		ras[i], rbs[i] = ra, rb
		if blindedA[i], err = pk.AddPlain(as[i], ra); err != nil {
			return err
		}
		// Re-randomize so S2 cannot link the blinded operands to
		// ciphertexts it may have produced earlier.
		if blindedA[i], err = c.Enc().Rerandomize(blindedA[i]); err != nil {
			return err
		}
		if blindedB[i], err = pk.AddPlain(bs[i], rb); err != nil {
			return err
		}
		if blindedB[i], err = c.Enc().Rerandomize(blindedB[i]); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	prods, err := c.MultBlinded(ctx, blindedA, blindedB)
	if err != nil {
		return nil, err
	}
	out := make([]*paillier.Ciphertext, len(as))
	err = parallel.ForEachCtx(ctx, len(as), func(i int) error {
		// ab = (a+ra)(b+rb) - ra*b - rb*a - ra*rb
		t1, err := pk.MulConst(bs[i], new(big.Int).Neg(ras[i]))
		if err != nil {
			return err
		}
		t2, err := pk.MulConst(as[i], new(big.Int).Neg(rbs[i]))
		if err != nil {
			return err
		}
		rr := new(big.Int).Mul(ras[i], rbs[i])
		acc, err := pk.Add(prods[i], t1)
		if err != nil {
			return err
		}
		if acc, err = pk.Add(acc, t2); err != nil {
			return err
		}
		if acc, err = pk.AddPlain(acc, new(big.Int).Neg(rr)); err != nil {
			return err
		}
		out[i] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
