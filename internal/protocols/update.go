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

	// One EqBits round over all (new, existing) pairs, permuted. The
	// equality ciphertexts build in parallel.
	type pairRef struct{ g, t int }
	var refs []pairRef
	for gi := range gamma {
		for ti := range T {
			refs = append(refs, pairRef{gi, ti})
		}
	}
	eqCts, err := parallel.MapErrCtx(ctx, refs, func(_ int, r pairRef) (*paillier.Ciphertext, error) {
		ct, err := ehl.SubEnc(c.Enc(), gamma[r.g].EHL, T[r.t].EHL)
		if err != nil {
			return nil, fmt.Errorf("protocols: SecUpdate eq(%d,%d): %w", r.g, r.t, err)
		}
		return ct, nil
	})
	if err != nil {
		return nil, err
	}
	bits, err := EqBitsPermuted(ctx, c, eqCts)
	if err != nil {
		return nil, err
	}

	// Build all selections; resolve with one Recover round.
	zero, err := c.Enc().EncryptZero()
	if err != nil {
		return nil, err
	}
	var sels []Selection
	add := func(s Selection) int {
		sels = append(sels, s)
		return len(sels) - 1
	}
	type jobKind int
	const (
		jobExistingAdd jobKind = iota // add t*value to existing column
		jobExistingSet                // overwrite existing col (composed select)
		jobNewAdd                     // add t*value to new column
	)
	type job struct {
		kind jobKind
		item int // index into T or gamma depending on kind
		col  int
		slot int
	}
	var jobs []job
	for k, r := range refs {
		g, t := r.g, r.t
		// Additive columns: W and any payload columns beyond B. Adding
		// composes safely across pairs because at most one pair matches.
		for col := 0; col < cols; col++ {
			if col == ColBest {
				continue
			}
			jobs = append(jobs,
				job{kind: jobExistingAdd, item: t, col: col, slot: add(Pick(bits[k], gamma[g].Scores[col], zero))},
				job{kind: jobNewAdd, item: g, col: col, slot: add(Pick(bits[k], T[t].Scores[col], zero))})
		}
	}
	// Best bound: replace with the fresher value when matched. This must
	// compose across all gamma items of one existing entry at once —
	// B' = sum_g t_g * B_g + (1 - sum_g t_g) * B_old — a per-pair select
	// would let a later unmatched pair overwrite the refresh. refs is
	// gamma-major, so pair (gamma g, existing t) has bit g*len(T)+t.
	if cols > ColBest {
		for ti := range T {
			s := Selection{Else: T[ti].Scores[ColBest]}
			for gi := range gamma {
				s.T = append(s.T, bits[gi*len(T)+ti])
				s.A = append(s.A, gamma[gi].Scores[ColBest])
			}
			jobs = append(jobs, job{kind: jobExistingSet, item: ti, col: ColBest, slot: add(s)})
		}
	}
	resolved, err := Select(ctx, c, sels)
	if err != nil {
		return nil, err
	}

	// Apply updates on fresh copies.
	newT := make([]Item, len(T))
	for i := range T {
		newT[i] = T[i].Clone()
	}
	newGamma := make([]Item, len(gamma))
	for i := range gamma {
		newGamma[i] = gamma[i].Clone()
	}
	for _, j := range jobs {
		switch j.kind {
		case jobExistingAdd:
			sum, err := pk.Add(newT[j.item].Scores[j.col], resolved[j.slot])
			if err != nil {
				return nil, err
			}
			newT[j.item].Scores[j.col] = sum
		case jobExistingSet:
			newT[j.item].Scores[j.col] = resolved[j.slot]
		case jobNewAdd:
			sum, err := pk.Add(newGamma[j.item].Scores[j.col], resolved[j.slot])
			if err != nil {
				return nil, err
			}
			newGamma[j.item].Scores[j.col] = sum
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
