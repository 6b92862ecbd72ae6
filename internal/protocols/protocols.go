// Package protocols implements the S1 side of the paper's two-party
// sub-protocols (Section 8.2 and Section 10): EncCompare, the hidden-bit
// gadget every oblivious choice goes through (in place of Algorithm 5's
// double layer), SecWorst, SecBest, SecDedup/SecDupElim and Qry_F's
// round-free MarkEarlier, SecUpdate, EncSelectTop
// (EncSort's ranking: the shallowest of top-k selection passes, a pruned
// Batcher network and fixed six-input programs),
// SecMult, and SecFilter.
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
//
// ScoreBits, when positive, is the width its owner declares for the
// hidden-bit gadget's payloads made from the score columns: every such
// payload — a column, the difference of two items' columns at a gate, a
// sentinel minus a column — lies in (-2^ScoreBits, 2^ScoreBits), so the
// gadget blinds it short (blindPayloads). Zero declares nothing and the
// payloads are blinded at full width, as id digests always are. A call
// blinds at one width per slot for all its items (slotBits), so an
// undeclared item makes the whole call full width.
type Item struct {
	EHL       *ehl.List
	Scores    []*paillier.Ciphertext
	ScoreBits int
}

// Clone deep-copies the item.
func (it Item) Clone() Item {
	out := Item{EHL: it.EHL.Clone(), Scores: make([]*paillier.Ciphertext, len(it.Scores)), ScoreBits: it.ScoreBits}
	for i, s := range it.Scores {
		out.Scores[i] = s.Clone()
	}
	return out
}

// Validate checks the item's shape. An empty EHL is an item without an
// id (a join result's), which a ranking moves but no equality test takes.
func (it Item) Validate(cols int) error {
	if it.EHL == nil {
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

// blindSlack is the statistical slack of a short blind: a payload
// bounded by |d| < 2^b travels as Enc(d - r) with r uniform below
// 2^(b+blindSlack), within 2^-40 of independent of d (DESIGN.md "The 2⁴⁰
// mask").
const blindSlack = 41

// ApplyBits is the one hidden-bit gadget every oblivious choice goes
// through. Bit k is read by S2 from its group of tests
// tests[k*group : (k+1)*group] — the zero tests of EHL differences under
// cloud.MethodEqBits, t_k = 1 iff any is zero, or the sign of one masked
// difference under cloud.MethodCompareHidden (group 1) — and scales the
// width payloads pay[k*width : (k+1)*width]. For each payload Enc(d) it
// returns Enc(t_k*d), in the order given: with a choice between c0 and c1
// a caller passes d = c1 - c0 and adds c0 back, for new = c0 + t*(c1 - c0).
// Beside the payloads it returns bits[k] = Enc(t_k), S2's fresh reply, in
// the caller's order.
//
// widths declares slot widths, the same for every bit of the call: slot
// s of every bit holds |d| < 2^widths[s], or declares nothing where
// widths[s] is 0 or widths is nil. S1 sends every payload as Enc(d - r)
// under a fresh pooled Enc(-r) of a known r — uniform below
// 2^(widths[s]+blindSlack) on a declared slot, in Z_N otherwise
// (blindPayloads) — so it carries a nonce
// power S2 has never seen; S2 answers Enc(t) and Enc(t*(d - r))
// re-randomized (cloud.Server.gadget), and S1 takes the blind off as
// Enc(t*(d - r)) * Enc(t)^r = Enc(t*d), exact mod N whatever the widths.
// A uniform unit would hide d as well, but S1 must know r to unblind. One
// squaring chain of Enc(t) serves all of the bit's width exponents, and
// the bits fan out over GOMAXPROCS workers. Equality bits go to S2 under
// a fresh random permutation, each with its tests and its payloads
// (Algorithm 4 line 2; SecJoin's Algorithm 11 line 3), so S2 sees the
// pattern of bits but not which pair or row a bit belongs to. Comparison
// bits keep the caller's order, which is the public gate schedule: S1's
// sign flip already makes each one uniform.
func ApplyBits(ctx context.Context, c *cloud.Client, method string, group, width int, tests, pay []*paillier.Ciphertext, widths []int) (out, bits []*paillier.Ciphertext, err error) {
	if group < 1 || width < 1 || len(tests)%group != 0 || len(pay) != width*(len(tests)/group) {
		return nil, nil, fmt.Errorf("protocols: %d tests and %d payloads for hidden bits of %d tests and width %d", len(tests), len(pay), group, width)
	}
	n := len(tests) / group
	if n == 0 {
		return nil, nil, nil
	}
	pk := c.PK()
	// at[k] is where bit k travels on the wire.
	at := make([]int, n)
	for k := range at {
		at[k] = k
	}
	if method == cloud.MethodEqBits {
		if at, err = prf.RandomPerm(n); err != nil {
			return nil, nil, err
		}
	}
	wireTests := make([]*paillier.Ciphertext, len(tests))
	for x, test := range tests {
		if test == nil || test.C == nil {
			return nil, nil, fmt.Errorf("protocols: hidden bit %d has no test ciphertext %d", x/group, x%group)
		}
		wireTests[at[x/group]*group+x%group] = test
	}
	blinded, exps, err := blindPayloads(ctx, c, pay, width, widths)
	if err != nil {
		return nil, nil, err
	}
	wireBits, got, err := c.Gadget(ctx, method, group, width, wireTests, permuteItems(blinded, width, at))
	if err != nil {
		return nil, nil, err
	}
	out, bits = make([]*paillier.Ciphertext, len(pay)), make([]*paillier.Ciphertext, n)
	err = parallel.ForEachCtx(ctx, n, func(k int) error {
		bits[k] = wireBits[at[k]]
		return unblindScaled(pk, bits[k].C, got[at[k]*width:(at[k]+1)*width], exps[k*width:(k+1)*width], out[k*width:(k+1)*width])
	})
	if err != nil {
		return nil, nil, err
	}
	return out, bits, nil
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
// not once per (row, column) pair. rowWidths and colWidths declare each
// side's slot widths, as ApplyBits' widths do.
//
// Every payload is blinded with a fresh pooled Enc(-r), as in ApplyBits,
// and rows and columns go to S2 under fresh random permutations of their
// own: a matrix with at most one match per row and column, so permuted,
// shows S2 only its number of matches, what a permuted list of the pair
// bits shows. S1 multiplies Enc(t_r) out of its row's cells, takes the
// blinds off the scaled payloads with one squaring chain of it, and off
// each crossing sum with one multi-exponentiation, Π_c Enc(t_rc)^(r_c).
func ApplyMatrix(ctx context.Context, c *cloud.Client, cells []*paillier.Ciphertext, rows, cols cloud.MatrixSide, rowWidths, colWidths []int) (rowOut, colOut []*paillier.Ciphertext, err error) {
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
	rowBlind, rowExps, err := blindPayloads(ctx, c, rows.Pay, rows.Width, rowWidths)
	if err != nil {
		return nil, nil, err
	}
	colBlind, colExps, err := blindPayloads(ctx, c, cols.Pay, cols.Width, colWidths)
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
// its scaled payloads (exps, the r of each payload of its own) under its
// bit, the product of its cells, on one squaring chain, and the sum
// crossing from each of the other side's crossing slots under
// Π_j Enc(t_ij)^(r_j), one multi-exponentiation.
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

// blindBound returns the bound a blind is drawn below for a slot of
// declared width b: 2^(b+blindSlack), or N where the slot declares no
// width (b = 0) or one within blindSlack+2 bits of |N|, too wide for
// d - r to stay inside (-N/2, N/2), where S2's signed reading of it is
// the integer itself.
func blindBound(pk *paillier.PublicKey, b int) *big.Int {
	if b <= 0 || b+blindSlack+2 >= pk.N.BitLen() {
		return pk.N
	}
	return new(big.Int).Lsh(zmath.One, uint(b+blindSlack))
}

// blindPayloads returns Enc(d - r) for every payload Enc(d), each r fresh
// under a fresh pooled Enc(N - r), and beside it r, the exponent that
// takes the blind off whatever bit t S2 applied:
// Enc(t*(d - r)) * Enc(t)^r = Enc(t*d). Payload x is slot x % width of
// its bit, and its r is drawn below blindBound of the slot's declared
// width widths[x % width] (none when widths is nil): a declared slot's
// d - r then lies in (-2^(b+blindSlack) - 2^b, 2^b), and S2's view of it
// is within 2^-40 of independent of d, with an exponent b+41 bits wide
// where a full one is |N|.
func blindPayloads(ctx context.Context, c *cloud.Client, pay []*paillier.Ciphertext, width int, widths []int) (blinded []*paillier.Ciphertext, exps []*big.Int, err error) {
	if widths != nil && len(widths) != width {
		return nil, nil, fmt.Errorf("protocols: %d slot widths for payloads of width %d", len(widths), width)
	}
	pk := c.PK()
	bounds := make([]*big.Int, width)
	for s := range bounds {
		b := 0
		if widths != nil {
			b = widths[s]
		}
		if b < 0 {
			return nil, nil, fmt.Errorf("protocols: slot %d declares width %d", s, b)
		}
		bounds[s] = blindBound(pk, b)
	}
	blinded, exps = make([]*paillier.Ciphertext, len(pay)), make([]*big.Int, len(pay))
	err = parallel.ForEachCtx(ctx, len(pay), func(x int) error {
		d := pay[x]
		if d == nil || d.C == nil {
			return fmt.Errorf("protocols: hidden-bit payload %d is nil", x)
		}
		r, err := zmath.RandInt(rand.Reader, bounds[x%width])
		if err != nil {
			return err
		}
		blind, err := c.Enc().Encrypt(new(big.Int).Sub(pk.N, r))
		if err != nil {
			return err
		}
		if blinded[x], err = pk.Add(d, blind); err != nil {
			return err
		}
		exps[x] = r
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

// slotBits returns the slot widths a gadget call over items declares
// (ApplyBits' widths): none for the id digests, and the items' common
// ScoreBits for every score column — nil, full width throughout, when
// any item declares none or two declare different widths, so a call
// never blinds one item's slot shorter than another's.
func slotBits(items []Item) []int {
	if len(items) == 0 {
		return nil
	}
	b := items[0].ScoreBits
	for _, it := range items {
		if it.ScoreBits != b {
			return nil
		}
	}
	if b <= 0 {
		return nil
	}
	w := items[0].EHL.Width()
	out := make([]int, w+len(items[0].Scores))
	for s := w; s < len(out); s++ {
		out[s] = b
	}
	return out
}

// uniformBits returns width copies of b: one declared width for every
// slot (nil for b = 0, none declared).
func uniformBits(width, b int) []int {
	if b <= 0 {
		return nil
	}
	out := make([]int, width)
	for s := range out {
		out[s] = b
	}
	return out
}

// permuteItems moves item i's width payloads to where at[i] says.
func permuteItems(pay []*paillier.Ciphertext, width int, at []int) []*paillier.Ciphertext {
	out := make([]*paillier.Ciphertext, len(pay))
	for x, p := range pay {
		out[at[x/width]*width+x%width] = p
	}
	return out
}

// SecMult computes Enc(a_i * b_i) for each pair by the additively
// blinded two-party multiplication, one round for the whole batch: S1
// sends Enc(a - r_a) and Enc(b - r_b), S2 decrypts both and returns
// Enc((a - r_a)(b - r_b)) under a nonce of its own, and S1 strips the
// blinds as
//
//	ab = (a - r_a)(b - r_b) + r_a*b + r_b*a - r_a*r_b,
//
// Enc(b)^r_a and Enc(a)^r_b, both exponents positive. bits declares
// |a|, |b| < 2^bits for every pair, as a slot width does in ApplyBits:
// the blinds are then drawn below 2^(bits+blindSlack), so S2's view is
// within 2^-40 of independent of the operands and S1's exponents are
// bits+41 wide; bits = 0 blinds in Z_N.
func SecMult(ctx context.Context, c *cloud.Client, as, bs []*paillier.Ciphertext, bits int) ([]*paillier.Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("protocols: SecMult length mismatch %d vs %d", len(as), len(bs))
	}
	if len(as) == 0 {
		return nil, nil
	}
	pk := c.PK()
	n := len(as)
	// One blinding pass over a's then b's: slot 0 of a two-slot bit.
	blinded, rs, err := blindPayloads(ctx, c, append(append([]*paillier.Ciphertext(nil), as...), bs...), 1, uniformBits(1, bits))
	if err != nil {
		return nil, err
	}
	prods, err := c.MultBlinded(ctx, blinded[:n], blinded[n:])
	if err != nil {
		return nil, err
	}
	out := make([]*paillier.Ciphertext, n)
	err = parallel.ForEachCtx(ctx, n, func(i int) error {
		ra, rb := rs[i], rs[n+i]
		ta, err := lonePower(pk, bs[i], ra)
		if err != nil {
			return err
		}
		tb, err := lonePower(pk, as[i], rb)
		if err != nil {
			return err
		}
		acc, err := pk.AddAll([]*paillier.Ciphertext{prods[i], ta, tb})
		if err != nil {
			return err
		}
		out[i], err = pk.AddPlain(acc, new(big.Int).Neg(new(big.Int).Mul(ra, rb)))
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SecSquare computes Enc(a_i^2) for each operand with one blinded
// operand where SecMult(as, as) sends two: S1 sends Enc(a - r), S2
// decrypts it once and returns Enc((a - r)^2), and S1 strips the blind
// as a^2 = (a - r)^2 + 2r*a - r^2, one positive exponent 2r. bits
// declares |a| < 2^bits, as in SecMult.
func SecSquare(ctx context.Context, c *cloud.Client, as []*paillier.Ciphertext, bits int) ([]*paillier.Ciphertext, error) {
	if len(as) == 0 {
		return nil, nil
	}
	pk := c.PK()
	blinded, rs, err := blindPayloads(ctx, c, as, 1, uniformBits(1, bits))
	if err != nil {
		return nil, err
	}
	squares, err := c.SquareBlinded(ctx, blinded)
	if err != nil {
		return nil, err
	}
	out := make([]*paillier.Ciphertext, len(as))
	err = parallel.ForEachCtx(ctx, len(as), func(i int) error {
		r := rs[i]
		cross, err := lonePower(pk, as[i], new(big.Int).Lsh(r, 1))
		if err != nil {
			return err
		}
		acc, err := pk.Add(squares[i], cross)
		if err != nil {
			return err
		}
		out[i], err = pk.AddPlain(acc, new(big.Int).Neg(new(big.Int).Mul(r, r)))
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// lonePower returns Enc(e*x) = Enc(x)^e for a non-negative e, through
// the engine's one-base path (zmath.Modulus.ExpModShared), which picks
// its ladder by the exponent's width.
func lonePower(pk *paillier.PublicKey, x *paillier.Ciphertext, e *big.Int) (*paillier.Ciphertext, error) {
	if x == nil || x.C == nil {
		return nil, errors.New("protocols: nil operand")
	}
	p, err := pk.EngineN2().ExpModShared(x.C, []*big.Int{e})
	if err != nil {
		return nil, err
	}
	return &paillier.Ciphertext{C: p[0]}, nil
}
