package protocols

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/dj"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
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
	worst, _, err := secWorstBest(ctx, c, items, histories, true, false)
	return worst, err
}

// SecBestAll is the SecBest protocol (Algorithm 6) run for every item at
// the current depth at once: the best half of SecWorstBestAll.
func SecBestAll(ctx context.Context, c *cloud.Client, items []DepthItem, histories []ListHistory) ([]*paillier.Ciphertext, error) {
	_, best, err := secWorstBest(ctx, c, items, histories, false, true)
	return best, err
}

// SecWorstBestAll runs SecWorst (Algorithm 4) and SecBest (Algorithm 6)
// for every item at the current depth in two rounds: one permuted EqBits
// batch and one Recover batch.
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
//	B_i = x_i + sum_{j != i} [ sum_e t_e * x_j^e + (1 - sum_e t_e) * bottom_j ]
//
// histories[j] must contain list j's seen prefix including the current
// depth; item i must be the current-depth item of histories[i]. SecBest's
// equality bits (item i, list j, depth e) at the current depth are the
// t_ij SecWorst needs, and t_ij = t_ji, so each same-depth pair is asked
// once and serves both bounds of both items. S2's view is the permuted
// equality pattern of the depth (leakage EP^d).
func SecWorstBestAll(ctx context.Context, c *cloud.Client, items []DepthItem, histories []ListHistory) (worst, best []*paillier.Ciphertext, err error) {
	return secWorstBest(ctx, c, items, histories, true, true)
}

// secWorstBest is SecWorstBestAll computing only the requested halves; an
// unrequested half costs no equality bit and no recovery slot.
func secWorstBest(ctx context.Context, c *cloud.Client, items []DepthItem, histories []ListHistory, wantWorst, wantBest bool) (worst, best []*paillier.Ciphertext, err error) {
	if err := validateDepthItems(items); err != nil {
		return nil, nil, err
	}
	if len(histories) != len(items) {
		return nil, nil, fmt.Errorf("protocols: %d histories for %d items", len(histories), len(items))
	}
	for j, h := range histories {
		if len(h.EHLs) == 0 || len(h.EHLs) != len(h.Scores) {
			return nil, nil, fmt.Errorf("protocols: history %d malformed", j)
		}
	}
	pk := c.PK()
	m := len(items)
	ownScores := func() []*paillier.Ciphertext {
		out := make([]*paillier.Ciphertext, m)
		for i := range out {
			out[i] = items[i].Score.Clone()
		}
		return out
	}
	if wantWorst {
		worst = ownScores()
	}
	if wantBest {
		best = ownScores()
	}
	if m == 1 {
		return worst, best, nil
	}
	last := func(j int) int { return len(histories[j].EHLs) - 1 }

	// One equality ciphertext per unordered same-depth pair, then one per
	// (item i, other list j, earlier depth e), which only SecBest looks
	// at; bitAt[i][j][e] locates [o_i = o_j^e] in that batch.
	type ref struct{ i, j, e int }
	var refs []ref
	bitAt := make([][][]int, m)
	for i := range bitAt {
		bitAt[i] = make([][]int, m)
		for j := range bitAt[i] {
			bitAt[i][j] = make([]int, last(j)+1)
		}
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			bitAt[i][j][last(j)], bitAt[j][i][last(i)] = len(refs), len(refs)
			refs = append(refs, ref{i, j, last(j)})
		}
	}
	for i := 0; wantBest && i < m; i++ {
		for j := 0; j < m; j++ {
			for e := 0; j != i && e < last(j); e++ {
				bitAt[i][j][e] = len(refs)
				refs = append(refs, ref{i, j, e})
			}
		}
	}
	// The randomized equality ciphertexts are independent, so they build
	// in parallel — this is the largest S1-side batch of the per-depth
	// pipeline.
	eqCts, err := parallel.MapErrCtx(ctx, refs, func(_ int, r ref) (*paillier.Ciphertext, error) {
		ct, err := ehl.SubEnc(c.Enc(), items[r.i].EHL, histories[r.j].EHLs[r.e])
		if err != nil {
			return nil, fmt.Errorf("protocols: SecWorstBest eq(%d,%d,%d): %w", r.i, r.j, r.e, err)
		}
		return ct, nil
	})
	if err != nil {
		return nil, nil, err
	}
	bits, err := EqBitsPermuted(ctx, c, eqCts)
	if err != nil {
		return nil, nil, err
	}

	// Every ordered pair (i, j) contributes one term to W_i and one to
	// B_i; all of them resolve in one recover round.
	type key struct{ i, j int }
	var keys []key
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if j != i {
				keys = append(keys, key{i, j})
			}
		}
	}
	// Worst selections first, then best, each in keys order.
	var sels []Selection
	if wantWorst {
		// t_ij*x_j + (1-t_ij)*0.
		zero, err := c.Enc().EncryptZero()
		if err != nil {
			return nil, nil, err
		}
		for _, k := range keys {
			sels = append(sels, Pick(bits[bitAt[k.i][k.j][last(k.j)]], items[k.j].Score, zero))
		}
	}
	bestAt := len(sels)
	if wantBest {
		// sum_e t_e*Enc(x_j^e) + (1 - sum_e t_e)*Enc(bottom_j): the object
		// matches at most one depth of list j, else the bottom stands in.
		// The current depth's entry is the bottom itself, which Selection
		// recognises and spends no exponentiation on.
		for _, k := range keys {
			h := histories[k.j]
			ts := make([]*dj.Ciphertext, len(h.Scores))
			for e, b := range bitAt[k.i][k.j] {
				ts[e] = bits[b]
			}
			sels = append(sels, Selection{T: ts, A: h.Scores, Else: h.Scores[last(k.j)]})
		}
	}
	resolved, err := Select(ctx, c, sels)
	if err != nil {
		return nil, nil, err
	}
	for g, k := range keys {
		if wantWorst {
			if worst[k.i], err = pk.Add(worst[k.i], resolved[g]); err != nil {
				return nil, nil, err
			}
		}
		if wantBest {
			if best[k.i], err = pk.Add(best[k.i], resolved[bestAt+g]); err != nil {
				return nil, nil, err
			}
		}
	}
	return worst, best, nil
}
