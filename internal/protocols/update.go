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
//	new.W      += t * existing.W_old (so both copies carry the merged total)
//
// after which the new items are appended and a bipartite dedup removes one
// copy of each matched pair. In Replace mode (Qry_F) the duplicate slots
// stay as sentinel rows, so |T| grows by |gamma| each depth, as in the
// paper; in Eliminate mode (Qry_E) they are dropped.
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

	// One gadget round over all (new, existing) pairs, permuted, each bit
	// with the same width: per additive column (W and any payload beyond
	// B) new.col for the existing copy and existing.col for the new one,
	// then new.B - existing.B. The equality ciphertexts build in parallel.
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
	width := 2 * len(addCols)
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
	pay := make([]*paillier.Ciphertext, 0, width*len(refs))
	for k, r := range refs {
		for _, col := range addCols {
			pay = append(pay, gamma[r.g].Scores[col], T[r.t].Scores[col])
		}
		if hasBest {
			pay = append(pay, bestDiffs[k])
		}
	}
	chosen, err := ApplyBits(ctx, c, cloud.MethodEqBits, width, tests, pay)
	if err != nil {
		return nil, err
	}

	// Apply updates on fresh copies. Adding composes across pairs because
	// each object matches at most one pair: W and the payload columns
	// accumulate t*value on both copies, and the best bound becomes
	// B_old + sum_g t_g*(B_g - B_old), the fresher value when matched.
	newT := make([]Item, len(T))
	for i := range T {
		newT[i] = T[i].Clone()
	}
	newGamma := make([]Item, len(gamma))
	for i := range gamma {
		newGamma[i] = gamma[i].Clone()
	}
	for k, r := range refs {
		out := chosen[k*width : (k+1)*width]
		for a, col := range addCols {
			if newT[r.t].Scores[col], err = pk.Add(newT[r.t].Scores[col], out[2*a]); err != nil {
				return nil, err
			}
			if newGamma[r.g].Scores[col], err = pk.Add(newGamma[r.g].Scores[col], out[2*a+1]); err != nil {
				return nil, err
			}
		}
		if hasBest {
			if newT[r.t].Scores[ColBest], err = pk.Add(newT[r.t].Scores[ColBest], out[width-1]); err != nil {
				return nil, err
			}
		}
	}

	// Append and run the bipartite dedup so each matched object survives
	// exactly once (Algorithm 9 line 13).
	combined := append(newT, newGamma...)
	existingIdx := make([]int, len(newT))
	for i := range newT {
		existingIdx[i] = i
	}
	newIdx := make([]int, len(newGamma))
	for i := range newGamma {
		newIdx[i] = len(newT) + i
	}
	return SecDedup(ctx, c, combined, mode, Bipartite(newIdx, existingIdx), nil)
}
