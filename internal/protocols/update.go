package protocols

import (
	"context"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
)

// SecUpdate merges the current depth's deduplicated items gamma into the
// global encrypted list T (Algorithm 9). For every (new, existing) pair
// with equality bit t:
//
//	existing.W += t * new.W          (accumulate the depth contribution)
//	existing.B  = t*new.B + (1-t)*existing.B   (take the fresher bound)
//
// and the new items are appended, so that each matched object survives
// once. In Replace mode (Qry_F) the same bits also turn a matched new
// item into a sentinel row, new += t * (sentinel - new): both lists are
// deduplicated, so a new item matches at most one existing one, and the
// sum over its pairs is linear in the bits. The whole update is one round
// of the gadget, and |T| grows by |gamma| each depth, as in the paper. In
// Eliminate mode (Qry_E) the new copy takes new.W += t * existing.W_old
// instead, and a bipartite dedup drops one copy of each matched pair
// (Algorithm 9 line 13), a second round.
//
// Extra score columns beyond W and B (engine payload such as per-list seen
// indicators) are merged additively like W.
func SecUpdate(ctx context.Context, c *cloud.Client, T, gamma []Item, mode cloud.DedupMode) ([]Item, error) {
	if len(gamma) == 0 {
		return T, nil
	}
	cols := len(gamma[0].Scores)
	for i, it := range gamma {
		if err := it.Validate(cols); err != nil {
			return nil, fmt.Errorf("protocols: SecUpdate gamma[%d]: %w", i, err)
		}
	}
	for i, it := range T {
		if err := it.Validate(cols); err != nil {
			return nil, fmt.Errorf("protocols: SecUpdate T[%d]: %w", i, err)
		}
	}
	if len(T) == 0 {
		// Nothing to merge with; gamma becomes the list.
		return append([]Item(nil), gamma...), nil
	}
	pk := c.PK()
	replace := mode == cloud.DedupReplace

	// One gadget round over all (new, existing) pairs, permuted, each bit
	// with the same width: per additive column (W and any payload beyond
	// B) new.col for the existing copy and, outside Replace mode,
	// existing.col for the new one; then new.B - existing.B; then, in
	// Replace mode, sentinel - new for every slot of the new item. The
	// equality ciphertexts build in parallel.
	type pairRef struct{ g, t int }
	var refs []pairRef
	for gi := range gamma {
		for ti := range T {
			refs = append(refs, pairRef{gi, ti})
		}
	}
	tests, err := parallel.MapErrCtx(ctx, refs, func(_ int, r pairRef) (*paillier.Ciphertext, error) {
		ct, err := ehl.SubEnc(c.Enc(), gamma[r.g].EHL, T[r.t].EHL)
		if err != nil {
			return nil, fmt.Errorf("protocols: SecUpdate eq(%d,%d): %w", r.g, r.t, err)
		}
		return ct, nil
	})
	if err != nil {
		return nil, err
	}
	var addCols []int
	for col := 0; col < cols; col++ {
		if col != ColBest {
			addCols = append(addCols, col)
		}
	}
	hasBest := cols > ColBest
	perCol := 2
	var sentinels []*paillier.Ciphertext
	if replace {
		perCol = 1
		if sentinels, err = sentinelDiffs(pk, gamma); err != nil {
			return nil, err
		}
	}
	sentinelW := len(sentinels) / len(gamma) // sentinel payloads per new item
	width := perCol * len(addCols)
	var fresher, older []*paillier.Ciphertext
	if hasBest {
		width++
		for _, r := range refs {
			fresher, older = append(fresher, gamma[r.g].Scores[ColBest]), append(older, T[r.t].Scores[ColBest])
		}
	}
	bestDiffs, err := subAll(pk, fresher, older)
	if err != nil {
		return nil, err
	}
	slotsAt := width // where the sentinel payloads start
	width += sentinelW
	pay := make([]*paillier.Ciphertext, 0, width*len(refs))
	for k, r := range refs {
		for _, col := range addCols {
			pay = append(pay, gamma[r.g].Scores[col])
			if !replace {
				pay = append(pay, T[r.t].Scores[col])
			}
		}
		if hasBest {
			pay = append(pay, bestDiffs[k])
		}
		pay = append(pay, sentinels[r.g*sentinelW:(r.g+1)*sentinelW]...)
	}
	chosen, err := ApplyBits(ctx, c, cloud.MethodEqBits, 1, width, tests, pay)
	if err != nil {
		return nil, err
	}

	// Apply updates on fresh copies. Adding composes across pairs because
	// each object matches at most one pair: W and the payload columns
	// accumulate t*value, the best bound becomes
	// B_old + sum_g t_g*(B_g - B_old), the fresher value when matched, and
	// in Replace mode a new item becomes new + sum_t t_t*(sentinel - new),
	// the sentinel when matched.
	newT := make([]Item, len(T))
	for i := range T {
		newT[i] = T[i].Clone()
	}
	newSlots := make([][]*paillier.Ciphertext, len(gamma))
	for i := range gamma {
		newSlots[i] = gamma[i].slots()
	}
	w := gamma[0].EHL.Width()
	for k, r := range refs {
		out := chosen[k*width : (k+1)*width]
		for a, col := range addCols {
			if newT[r.t].Scores[col], err = pk.Add(newT[r.t].Scores[col], out[perCol*a]); err != nil {
				return nil, err
			}
			if !replace {
				if newSlots[r.g][w+col], err = pk.Add(newSlots[r.g][w+col], out[perCol*a+1]); err != nil {
					return nil, err
				}
			}
		}
		if hasBest {
			if newT[r.t].Scores[ColBest], err = pk.Add(newT[r.t].Scores[ColBest], out[slotsAt-1]); err != nil {
				return nil, err
			}
		}
		for s, d := range out[slotsAt:] {
			if newSlots[r.g][s], err = pk.Add(newSlots[r.g][s], d); err != nil {
				return nil, err
			}
		}
	}
	combined := newT
	for i, slots := range newSlots {
		combined = append(combined, gamma[i].withSlots(slots))
	}
	if replace {
		return combined, nil
	}

	// Run the bipartite dedup so each matched object survives exactly
	// once (Algorithm 9 line 13).
	existingIdx := make([]int, len(newT))
	for i := range newT {
		existingIdx[i] = i
	}
	newIdx := make([]int, len(newSlots))
	for i := range newSlots {
		newIdx[i] = len(newT) + i
	}
	return SecDedup(ctx, c, combined, mode, Bipartite(newIdx, existingIdx), nil)
}
