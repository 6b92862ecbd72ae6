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
// global encrypted list T (Algorithm 9). For every (new g, tracked t)
// pair with equality bit t_gt:
//
//	t.W += t_gt * g.W          (accumulate the depth contribution)
//	t.B  = t_gt * g.B + (1 - t_gt) * t.B   (take the fresher bound)
//
// and the new items are appended, so that each matched object survives
// once. Both lists are deduplicated, so the |gamma|×|T| matrix of bits
// has at most one match per row and per column, and the whole update is
// one ApplyMatrix round: g's W and B cross into the tracked item it
// matches, t.B is scaled by t's own bit t_t = Σ_g t_gt, and
// t.B - t_t*t.B + Σ_g t_gt*g.B is the fresher bound when matched. In
// Replace mode the same round also turns a matched new item into a
// sentinel row, g += t_g*(sentinel - g), its row scaling sentinel - g
// per slot, and |T| grows by |gamma| each depth, as in the paper; no
// query runs it, since Qry_F carries W forward on SecWorstBest's own bits
// (core's queryPerDepth), and it stays for the benchmark's seam alone. In
// Eliminate mode (Qry_E) the new copy takes g.W += Σ_t t_gt*t.W instead,
// t's W crossing into the row, and a bipartite dedup drops one copy of
// each matched pair (Algorithm 9 line 13), a second round.
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
	var additive []int // the score columns merged by adding: all but B
	for col := 0; col < cols; col++ {
		if col != ColBest {
			additive = append(additive, col)
		}
	}
	merged, bestW := additive, 0 // the columns a row crosses; B_t, the one payload a column scales
	if cols > ColBest {
		merged, bestW = append(additive[:len(additive):len(additive)], ColBest), 1
	}
	var crossIn []int // the columns a tracked item crosses into its match: Eliminate mode's additive ones
	if !replace {
		crossIn = additive
	}
	// Row g: in Replace mode sentinel - g per slot, scaled by t_g; then
	// its merged columns, crossing. Column t: B_t, scaled by t_t; then its
	// crossIn columns, crossing.
	var sentinels []*paillier.Ciphertext
	if replace {
		if sentinels, err = sentinelDiffs(pk, gamma); err != nil {
			return nil, err
		}
	}
	slotsW := len(sentinels) / R
	rows := cloud.MatrixSide{Items: R, Width: slotsW + len(merged), Cross: len(merged)}
	for g, it := range gamma {
		rows.Pay = append(rows.Pay, sentinels[g*slotsW:(g+1)*slotsW]...)
		for _, col := range merged {
			rows.Pay = append(rows.Pay, it.Scores[col])
		}
	}
	columns := cloud.MatrixSide{Items: C, Width: bestW + len(crossIn), Cross: len(crossIn)}
	for _, it := range T {
		if bestW > 0 {
			columns.Pay = append(columns.Pay, it.Scores[ColBest])
		}
		for _, col := range crossIn {
			columns.Pay = append(columns.Pay, it.Scores[col])
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
	newT := make([]Item, C)
	var olds, dropped []*paillier.Ciphertext
	for t, it := range T {
		newT[t] = it.Clone()
		if bestW > 0 {
			olds, dropped = append(olds, it.Scores[ColBest]), append(dropped, colOut[t*colW])
		}
	}
	kept, err := subAll(pk, olds, dropped)
	if err != nil {
		return nil, err
	}
	for t := range newT {
		cross := colOut[t*colW+bestW : (t+1)*colW]
		for a, col := range merged {
			base := newT[t].Scores[col]
			if col == ColBest {
				base = kept[t]
			}
			if newT[t].Scores[col], err = pk.Add(base, cross[a]); err != nil {
				return nil, err
			}
		}
	}
	// The new items: in Replace mode each slot adds t_g*(sentinel - slot);
	// in Eliminate mode each additive column adds the matched t's.
	rowW := slotsW + len(crossIn)
	combined := newT
	for g, it := range gamma {
		slots := it.slots()
		out := rowOut[g*rowW : (g+1)*rowW]
		for s, d := range out[:slotsW] {
			if slots[s], err = pk.Add(slots[s], d); err != nil {
				return nil, err
			}
		}
		w := it.EHL.Width()
		for a, col := range crossIn {
			if slots[w+col], err = pk.Add(slots[w+col], out[slotsW+a]); err != nil {
				return nil, err
			}
		}
		combined = append(combined, it.withSlots(slots))
	}
	if replace {
		return combined, nil
	}

	// Run the bipartite dedup so each matched object survives exactly
	// once (Algorithm 9 line 13).
	existingIdx := make([]int, C)
	for i := range existingIdx {
		existingIdx[i] = i
	}
	newIdx := make([]int, R)
	for i := range newIdx {
		newIdx[i] = C + i
	}
	return SecDedup(ctx, c, combined, mode, Bipartite(newIdx, existingIdx), nil)
}
