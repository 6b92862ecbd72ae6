package protocols

import (
	"context"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/secerr"
)

// SecUpdate merges the current depth's deduplicated items gamma into the
// global encrypted list T (Algorithm 9) in Replace mode, the only one it
// serves. For every (new g, tracked t) pair with equality bit t_gt:
//
//	t.W += t_gt * g.W          (accumulate the depth contribution)
//	t.B  = t_gt * g.B + (1 - t_gt) * t.B   (take the fresher bound)
//
// and the new items are appended, a matched one turned into a sentinel
// row, so |T| grows by |gamma| each depth, as in the paper. Both lists
// are deduplicated, so the |gamma|×|T| matrix of bits has at most one
// match per row and per column, and the whole update is one ApplyMatrix
// round: g's W and B cross into the tracked item it matches, t.B is
// scaled by t's own bit t_t = Σ_g t_gt, and t.B - t_t*t.B + Σ_g t_gt*g.B
// is the fresher bound when matched; g's row scales sentinel - g per
// slot, so g += t_g*(sentinel - g). No query runs it — Qry_F carries W
// forward on SecWorstBest's own bits (core's MarkEarlier pass), and Qry_E
// and Qry_Ba merge through SecDedup — and it stays for the benchmark's
// seam alone. Any other mode is refused typed bad_request.
//
// Extra score columns beyond W and B (engine payload such as per-list seen
// indicators) are merged additively like W.
func SecUpdate(ctx context.Context, c *cloud.Client, T, gamma []Item, mode cloud.DedupMode) ([]Item, error) {
	if mode != cloud.DedupReplace {
		return nil, secerr.New(secerr.CodeBadRequest, "protocols: SecUpdate serves Replace mode only, not %s", mode)
	}
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
	R, C := len(gamma), len(T)

	// The zero tests, one per (new, tracked) cell, build in parallel.
	cells := make([]*paillier.Ciphertext, R*C)
	err := parallel.ForEachCtx(ctx, R*C, func(x int) error {
		var err error
		if cells[x], err = ehl.SubEnc(c.Enc(), gamma[x/C].EHL, T[x%C].EHL); err != nil {
			return fmt.Errorf("protocols: SecUpdate eq(%d,%d): %w", x/C, x%C, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var merged []int // the columns a row crosses: the additive ones, then B
	for col := 0; col < cols; col++ {
		if col != ColBest {
			merged = append(merged, col)
		}
	}
	bestW := 0 // B_t, the one payload a column scales
	if cols > ColBest {
		merged, bestW = append(merged, ColBest), 1
	}
	// Row g: sentinel - g per slot, scaled by t_g; then its merged
	// columns, crossing. Column t: B_t, scaled by t_t.
	sentinels, err := sentinelDiffs(pk, gamma)
	if err != nil {
		return nil, err
	}
	slotsW := len(sentinels) / R
	rows := cloud.MatrixSide{Items: R, Width: slotsW + len(merged), Cross: len(merged)}
	for g, it := range gamma {
		rows.Pay = append(rows.Pay, sentinels[g*slotsW:(g+1)*slotsW]...)
		for _, col := range merged {
			rows.Pay = append(rows.Pay, it.Scores[col])
		}
	}
	columns := cloud.MatrixSide{Items: C, Width: bestW}
	if bestW > 0 {
		for _, it := range T {
			columns.Pay = append(columns.Pay, it.Scores[ColBest])
		}
	}
	// Every score payload — a column, a sentinel minus one — is declared
	// at the items' common width; digest sentinels are blinded in full.
	all := append(append([]Item(nil), T...), gamma...)
	var rowWidths, colWidths []int
	if b := slotBits(all); b != nil {
		rowWidths = append(append([]int(nil), b[:slotsW]...), uniformBits(len(merged), b[len(b)-1])...)
		colWidths = uniformBits(columns.Width, b[len(b)-1])
	}
	rowOut, colOut, err := ApplyMatrix(ctx, c, cells, rows, columns, rowWidths, colWidths)
	if err != nil {
		return nil, err
	}

	// T's copies: the additive columns add the matched g's, and B becomes
	// B_t - t_t*B_t + Σ_g t_gt*B_g (one batch inversion for all of T).
	colW := bestW + rows.Cross
	combined := make([]Item, C, C+R)
	var olds, dropped []*paillier.Ciphertext
	for t, it := range T {
		combined[t] = it.Clone()
		if bestW > 0 {
			olds, dropped = append(olds, it.Scores[ColBest]), append(dropped, colOut[t*colW])
		}
	}
	kept, err := subAll(pk, olds, dropped)
	if err != nil {
		return nil, err
	}
	for t := range combined {
		cross := colOut[t*colW+bestW : (t+1)*colW]
		for a, col := range merged {
			base := combined[t].Scores[col]
			if col == ColBest {
				base = kept[t]
			}
			if combined[t].Scores[col], err = pk.Add(base, cross[a]); err != nil {
				return nil, err
			}
		}
	}
	// The new items: each slot adds t_g*(sentinel - slot).
	for g, it := range gamma {
		slots := it.slots()
		for s, d := range rowOut[g*slotsW : (g+1)*slotsW] {
			if slots[s], err = pk.Add(slots[s], d); err != nil {
				return nil, err
			}
		}
		combined = append(combined, it.withSlots(slots))
	}
	return combined, nil
}
