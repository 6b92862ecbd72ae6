// Package protocols implements the S1 side of the paper's two-party
// sub-protocols (Section 8.2 and Section 10): EncCompare, the
// encrypted-selection gadget (which carries RecoverEnc's blind), SecWorst,
// SecBest, SecDedup/SecDupElim, SecUpdate, EncSelectTop (EncSort's
// ranking: Batcher's network or top-k selection passes), SecMult, and
// SecFilter.
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
	"repro/internal/dj"
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

// Selection is one oblivious choice among first-layer ciphertexts, made
// under the outer layer: it resolves to an encryption of A[e]'s plaintext
// for the one e whose hidden bit T[e] is 1, and of Else's when no bit is
// set. At most one bit may be set.
type Selection struct {
	T    []*dj.Ciphertext
	A    []*paillier.Ciphertext
	Else *paillier.Ciphertext
}

// Pick is the two-way selection: a when t = 1, b when t = 0.
func Pick(t *dj.Ciphertext, a, b *paillier.Ciphertext) Selection {
	return Selection{T: []*dj.Ciphertext{t}, A: []*paillier.Ciphertext{a}, Else: b}
}

// check reports a selection Select cannot build a term for.
func (s Selection) check(djPK *dj.PublicKey) error {
	if len(s.T) != len(s.A) {
		return fmt.Errorf("%d bits for %d choices", len(s.T), len(s.A))
	}
	if s.Else == nil || s.Else.C == nil {
		return errors.New("nil Else")
	}
	for e, t := range s.T {
		if s.A[e] == nil || s.A[e].C == nil {
			return fmt.Errorf("choice %d is nil", e)
		}
		if t == nil || t.C == nil || t.C.Sign() <= 0 || t.C.Cmp(djPK.NS1) >= 0 {
			return fmt.Errorf("hidden bit %d is outside [1, N^3)", e)
		}
	}
	return nil
}

// Select resolves a batch of selections in one Recover round. For the
// blind R_i of selection i, S1 sends
//
//	(1+N)^{Else'*R' mod N^2} * prod_e E2(t_e)^{(A_e' - Else')*R' mod N^2}
//
// where x' is the ciphertext x read as an integer: the plaintext under the
// outer layer is (Else' + sum_e t_e*(A_e' - Else')) * R' mod N^2, the chosen
// ciphertext times R. R is a uniform unit of Z*_{N^2}, which is an
// encryption of a uniform r (with g = 1+N, (r, rho) -> g^r * rho^N is a
// bijection from Z_N x Z*_N onto Z*_{N^2}) drawn without a nonce power, so
// the term holds an encryption of the chosen plaintext plus r — all S2 may
// see (Algorithm 5's blind, folded into the exponents the selection raises
// to anyway). S2 strips the outer layer and re-randomizes, and S1 divides R
// back out; every result carries S2's fresh randomness, so it cannot be
// matched to the branch it came from.
//
// The layered exponentiations are the dominant S1-side cost: one per bit,
// none for the Else branch and none for a bit whose branch is Else. The
// powers of one hidden bit (a SecUpdate pair's picks and bound) are
// raised together, sharing one squaring chain, and the bits fan
// out over GOMAXPROCS workers.
func Select(ctx context.Context, c *cloud.Client, sels []Selection) ([]*paillier.Ciphertext, error) {
	pk, djPK := c.PK(), c.DJPK()
	// exps[i][e] starts as A_e' - Else' (nil where it is 0) and becomes the
	// exponent once R_i is drawn; groups[g] lists the (i, e) raising bits[g].
	type power struct{ sel, bit int }
	var (
		bits    []*dj.Ciphertext
		groups  [][]power
		groupOf = map[*dj.Ciphertext]int{}
		exps    = make([][]*big.Int, len(sels))
	)
	for i, s := range sels {
		if err := s.check(djPK); err != nil {
			return nil, fmt.Errorf("protocols: selection %d: %w", i, err)
		}
		exps[i] = make([]*big.Int, len(s.T))
		for e, t := range s.T {
			diff := new(big.Int).Sub(s.A[e].C, s.Else.C)
			if diff.Sign() == 0 {
				continue
			}
			exps[i][e] = diff
			g, ok := groupOf[t]
			if !ok {
				g = len(groups)
				groupOf[t] = g
				bits, groups = append(bits, t), append(groups, nil)
			}
			groups[g] = append(groups[g], power{i, e})
		}
	}
	blinds := make([]*paillier.Ciphertext, len(sels))
	terms := make([]*dj.Ciphertext, len(sels))
	err := parallel.ForEachCtx(ctx, len(sels), func(i int) error {
		r, err := zmath.RandUnit(rand.Reader, pk.N2)
		if err != nil {
			return err
		}
		blinds[i] = &paillier.Ciphertext{C: r}
		blindedElse, err := pk.Add(sels[i].Else, blinds[i])
		if err != nil {
			return err
		}
		if terms[i], err = djPK.EmbedInner(blindedElse); err != nil {
			return err
		}
		for _, d := range exps[i] {
			if d != nil {
				d.Mul(d, r).Mod(d, pk.N2)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	raised := make([][]*dj.Ciphertext, len(sels))
	for i := range sels {
		raised[i] = make([]*dj.Ciphertext, len(exps[i]))
	}
	err = parallel.ForEachCtx(ctx, len(groups), func(g int) error {
		ks := make([]*big.Int, len(groups[g]))
		for j, p := range groups[g] {
			ks[j] = exps[p.sel][p.bit]
		}
		out, err := djPK.ExpConsts(bits[g], ks)
		if err != nil {
			return err
		}
		// Each (i, e) belongs to one group, so no slot is written twice.
		for j, p := range groups[g] {
			raised[p.sel][p.bit] = out[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range terms {
		for _, x := range raised[i] {
			if x == nil {
				continue
			}
			if terms[i], err = djPK.Add(terms[i], x); err != nil {
				return nil, err
			}
		}
	}
	recovered, err := c.Recover(ctx, terms)
	if err != nil {
		return nil, err
	}
	// Each reply encrypts selected_i + r_i; dividing by the same R_i leaves
	// the selected plaintext under the randomness S2 put on it.
	return subAll(pk, recovered, blinds)
}

// EqBitsPermuted ships randomized equality ciphertexts to S2 under a fresh
// random permutation (Algorithm 4 line 2; SecJoin's Algorithm 11 line 3),
// so S2 sees the equality pattern but not which pair a bit belongs to,
// and returns the hidden bits E2(t) in the order of eqCts.
func EqBitsPermuted(ctx context.Context, c *cloud.Client, eqCts []*paillier.Ciphertext) ([]*dj.Ciphertext, error) {
	perm, err := prf.RandomPerm(len(eqCts))
	if err != nil {
		return nil, err
	}
	permuted := make([]*paillier.Ciphertext, len(eqCts))
	for i := range eqCts {
		permuted[perm[i]] = eqCts[i]
	}
	bitsPermuted, err := c.EqBits(ctx, permuted)
	if err != nil {
		return nil, err
	}
	bits := make([]*dj.Ciphertext, len(eqCts))
	for i := range bits {
		bits[i] = bitsPermuted[perm[i]]
	}
	return bits, nil
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
