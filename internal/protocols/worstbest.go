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

// DepthItem is one encrypted data item E(I) = (EHL(o), Enc(x)) read from a
// sorted list at the current depth (Section 6's item layout).
type DepthItem struct {
	EHL   *ehl.List
	Score *paillier.Ciphertext
}

// ListHistory is the prefix of a permuted sorted list seen so far: the
// items at depths 0..d. The last entry's score is the list's current
// bottom value (the best any unseen object can still achieve there).
type ListHistory struct {
	EHLs   []*ehl.List
	Scores []*paillier.Ciphertext
}

func validateDepthItems(items []DepthItem) error {
	if len(items) == 0 {
		return errors.New("protocols: no depth items")
	}
	for i, it := range items {
		if it.EHL == nil || it.Score == nil {
			return fmt.Errorf("protocols: depth item %d incomplete", i)
		}
	}
	return nil
}

// SecWorstAll is the SecWorst protocol (Algorithm 4) run for every item at
// the current depth at once: the worst half of SecWorstBestAll over a
// depth with no past.
func SecWorstAll(ctx context.Context, c *cloud.Client, items []DepthItem) ([]*paillier.Ciphertext, error) {
	histories := make([]ListHistory, len(items))
	for i, it := range items {
		histories[i] = ListHistory{EHLs: []*ehl.List{it.EHL}, Scores: []*paillier.Ciphertext{it.Score}}
	}
	worst, _, _, err := secWorstBest(ctx, c, items, histories, true, false)
	return worst, err
}

// SecBestAll is the SecBest protocol (Algorithm 6) run for every item at
// the current depth at once: the best half of SecWorstBestAll.
func SecBestAll(ctx context.Context, c *cloud.Client, items []DepthItem, histories []ListHistory) ([]*paillier.Ciphertext, error) {
	_, best, _, err := secWorstBest(ctx, c, items, histories, false, true)
	return best, err
}

// SecWorstBestAll runs SecWorst (Algorithm 4) and SecBest (Algorithm 6)
// for every item at the current depth in one round of the hidden-bit
// gadget (ApplyBits), its bits permuted.
//
// The worst (lower-bound) contribution of this depth for the item of list
// i is its own score plus the scores of every other same-depth item that
// carries the same object id:
//
//	W_i = x_i + sum_{j != i} t_ij * x_j,   t_ij = [o_i = o_j]
//
// Its best (upper-bound) score is its own value plus, for every other
// queried list j, either the object's actual score in L_j if it already
// appeared there, or L_j's current bottom value:
//
//	B_i = x_i + sum_{j != i} [ bottom_j + sum_{e < d} t_e * (x_j^e - bottom_j) ]
//
// histories[j] must contain list j's seen prefix including the current
// depth; item i must be the current-depth item of histories[i]. There is
// one bit per ordered (item i, list j, depth e <= d) with one payload
// each: x_j at the current depth, for W_i, and x_j^e - bottom_j at an
// earlier one, for B_i. That is Algorithm 6's bit set, so S2's view is
// the permuted equality pattern of the depth (leakage EP^d) and no more.
//
// Beside the bounds it returns same[i][j] = Enc(t_ij) for every ordered
// pair of distinct items, the bits of the worst bounds as S2 returned
// them: MarkDuplicates dedups the depth from them without a round.
func SecWorstBestAll(ctx context.Context, c *cloud.Client, items []DepthItem, histories []ListHistory) (worst, best []*paillier.Ciphertext, same [][]*paillier.Ciphertext, err error) {
	return secWorstBest(ctx, c, items, histories, true, true)
}

// secWorstBest is SecWorstBestAll computing only the requested halves; an
// unrequested half costs no equality bit, and same comes with the worst
// half.
func secWorstBest(ctx context.Context, c *cloud.Client, items []DepthItem, histories []ListHistory, wantWorst, wantBest bool) (worst, best []*paillier.Ciphertext, same [][]*paillier.Ciphertext, err error) {
	if err := validateDepthItems(items); err != nil {
		return nil, nil, nil, err
	}
	if len(histories) != len(items) {
		return nil, nil, nil, fmt.Errorf("protocols: %d histories for %d items", len(histories), len(items))
	}
	for j, h := range histories {
		if len(h.EHLs) == 0 || len(h.EHLs) != len(h.Scores) {
			return nil, nil, nil, fmt.Errorf("protocols: history %d malformed", j)
		}
	}
	pk := c.PK()
	m := len(items)
	last := func(j int) int { return len(histories[j].EHLs) - 1 }
	bottom := func(j int) *paillier.Ciphertext { return histories[j].Scores[last(j)] }
	// Both bounds start from the item's own score; the best bound also
	// takes every other list's bottom, which an earlier-depth match
	// replaces below.
	worst, best = make([]*paillier.Ciphertext, m), make([]*paillier.Ciphertext, m)
	for i := range items {
		worst[i], best[i] = items[i].Score.Clone(), items[i].Score.Clone()
		for j := 0; wantBest && j < m; j++ {
			if j != i {
				if best[i], err = pk.Add(best[i], bottom(j)); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	// One bit per (i, j, e) with one payload: x_j at the current depth,
	// x_j^e - bottom_j at an earlier one (the differences in one batch).
	type ref struct{ i, j, e int }
	var refs []ref
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			for e := 0; j != i && e <= last(j); e++ {
				if e == last(j) && wantWorst || e < last(j) && wantBest {
					refs = append(refs, ref{i, j, e})
				}
			}
		}
	}
	pay := make([]*paillier.Ciphertext, len(refs))
	var at []int
	var earlier, bottoms []*paillier.Ciphertext
	for k, r := range refs {
		if r.e == last(r.j) {
			pay[k] = items[r.j].Score
			continue
		}
		at = append(at, k)
		earlier, bottoms = append(earlier, histories[r.j].Scores[r.e]), append(bottoms, bottom(r.j))
	}
	diffs, err := subAll(pk, earlier, bottoms)
	if err != nil {
		return nil, nil, nil, err
	}
	for n, k := range at {
		pay[k] = diffs[n]
	}
	// The randomized equality ciphertexts are independent, so they build
	// in parallel — this is the largest S1-side batch of the per-depth
	// pipeline.
	tests, err := parallel.MapErrCtx(ctx, refs, func(_ int, r ref) (*paillier.Ciphertext, error) {
		ct, err := ehl.SubEnc(c.Enc(), items[r.i].EHL, histories[r.j].EHLs[r.e])
		if err != nil {
			return nil, fmt.Errorf("protocols: SecWorstBest eq(%d,%d,%d): %w", r.i, r.j, r.e, err)
		}
		return ct, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	chosen, bits, err := ApplyBits(ctx, c, cloud.MethodEqBits, 1, 1, tests, pay)
	if err != nil {
		return nil, nil, nil, err
	}
	if wantWorst {
		same = make([][]*paillier.Ciphertext, m)
		for i := range same {
			same[i] = make([]*paillier.Ciphertext, m)
		}
	}
	for k, r := range refs {
		bound := best
		if r.e == last(r.j) {
			bound, same[r.i][r.j] = worst, bits[k]
		}
		if bound[r.i], err = pk.Add(bound[r.i], chosen[k]); err != nil {
			return nil, nil, nil, err
		}
	}
	if !wantWorst {
		worst = nil
	}
	if !wantBest {
		best = nil
	}
	return worst, best, same, nil
}

// MarkDuplicates is Qry_F's dedup of one depth (Algorithm 7, Replace
// mode) with no round: from the bits same[i][j] = Enc([o_i = o_j]) that
// SecWorstBestAll returned, it turns every copy of an object but the
// first among the depth's items into a row no real object matches or
// outranks. Row i's count of earlier copies is
// Enc(u_i) = Π_{j<i} same[i][j], and one squaring chain of Enc(u_i)
// shifts each EHL slot by u_i*c, c fresh and uniform in Z_N, and each
// score column by -u_i*shift. A row with u_i = 0 keeps its plaintexts. A
// row with u_i >= 1 gets uniform digests (u_i < m is a unit mod N) and
// negative scores, provided shift exceeds every real score: the property
// Algorithm 7's sentinel row has. A sum serves where replaceDuplicates
// needs an OR: a third copy lands on 2c and -2*shift, still a uniform
// digest and a negative score.
//
// The rows come back in a fresh random order, their count unchanged.
// Index order always marks the copy from the later list, and SecUpdate
// appends the rows as given, so without the shuffle any trace of a
// marked row in S2's view (a comparison against it shows by its size,
// DESIGN.md "The mark step") would name which list held the later copy.
func MarkDuplicates(ctx context.Context, pk *paillier.PublicKey, items []Item, same [][]*paillier.Ciphertext, shift *big.Int) ([]Item, error) {
	if len(same) != len(items) {
		return nil, fmt.Errorf("protocols: %d rows of equality bits for %d items", len(same), len(items))
	}
	if shift == nil || shift.Sign() <= 0 || shift.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("protocols: duplicate shift %v outside (0, N)", shift)
	}
	out := make([]Item, len(items))
	err := parallel.ForEachCtx(ctx, len(items), func(i int) error {
		it := items[i]
		if err := it.Validate(len(it.Scores)); err != nil {
			return fmt.Errorf("protocols: MarkDuplicates item %d: %w", i, err)
		}
		if i == 0 {
			out[i] = it
			return nil
		}
		if len(same[i]) < i {
			return fmt.Errorf("protocols: item %d has %d equality bits, want %d", i, len(same[i]), i)
		}
		earlier := make([]*big.Int, i)
		for j, b := range same[i][:i] {
			if b == nil || b.C == nil {
				return fmt.Errorf("protocols: no equality bit for items %d and %d", i, j)
			}
			earlier[j] = b.C
		}
		u := pk.EngineN2().ProdMod(earlier)
		w := it.EHL.Width()
		exps := make([]*big.Int, w+1)
		for s := range exps[:w] {
			c, err := zmath.RandInt(rand.Reader, pk.N)
			if err != nil {
				return err
			}
			exps[s] = c
		}
		exps[w] = new(big.Int).Sub(pk.N, shift)
		powers, err := pk.EngineN2().ExpModShared(u, exps)
		if err != nil {
			return err
		}
		slots := it.slots()
		for s := range slots {
			if slots[s], err = pk.Add(slots[s], &paillier.Ciphertext{C: powers[min(s, w)]}); err != nil {
				return err
			}
		}
		out[i] = it.withSlots(slots)
		return nil
	})
	if err != nil {
		return nil, err
	}
	at, err := prf.RandomPerm(len(out))
	if err != nil {
		return nil, err
	}
	shuffled := make([]Item, len(out))
	for i, it := range out {
		shuffled[at[i]] = it
	}
	return shuffled, nil
}
