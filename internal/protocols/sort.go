package protocols

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
)

// EncSort realizes the EncSort building block of [7] ("sorting behind the
// curtain"): S1 holds encrypted items and ends with the same multiset of
// items ordered by the designated score column, learning nothing about the
// order; S2 sees only masked comparator differences.
//
// Implementation: a Batcher odd-even merge sorting network whose
// compare-exchange gates are built from EncCompareHidden (the comparison
// bit stays encrypted) and the encrypted-selection gadget. Gates within a
// network layer are independent, so each layer costs two rounds (one
// comparison batch, one recovery batch) — the parallelism the paper
// invokes for its O(log^2 m) depth claim (Section 10.3).
//
// The list is padded to a power of two with sentinel items that sort last
// and are stripped before returning. col selects the key column; desc
// selects descending order; magBits bounds the key magnitudes.
func EncSort(ctx context.Context, c *cloud.Client, items []Item, col int, desc bool, magBits int) ([]Item, error) {
	n := len(items)
	if n <= 1 {
		return append([]Item(nil), items...), nil
	}
	cols := len(items[0].Scores)
	if col < 0 || col >= cols {
		return nil, fmt.Errorf("protocols: sort column %d out of range", col)
	}
	for i, it := range items {
		if err := it.Validate(cols); err != nil {
			return nil, fmt.Errorf("protocols: EncSort item %d: %w", i, err)
		}
	}

	// Pad to the next power of two with items whose key sorts last.
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	work := make([]Item, p2)
	copy(work, items)
	if p2 > n {
		padKey := new(big.Int).Lsh(big.NewInt(1), uint(magBits)+1)
		if desc {
			padKey.Neg(padKey)
		}
		err := parallel.ForEachCtx(ctx, p2-n, func(i int) error {
			pad, err := sentinelItem(c.Enc(), items[0], padKey)
			if err != nil {
				return err
			}
			work[n+i] = *pad
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	layers := batcherLayers(p2)
	for _, layer := range layers {
		if err := runGateLayer(ctx, c, work, layer, col, desc, magBits+2); err != nil {
			return nil, err
		}
	}
	return work[:n], nil
}

// sentinelItem builds a pad item shaped like the template with the given
// key value; non-key columns are zero and the id is random.
func sentinelItem(enc paillier.Encryptor, template Item, key *big.Int) (*Item, error) {
	params := ehl.Params{Kind: template.EHL.Kind, S: template.EHL.Width(), H: template.EHL.Width()}
	id, err := ehl.RandomList(enc.Key(), params)
	if err != nil {
		return nil, err
	}
	out := &Item{EHL: id}
	for range template.Scores {
		ct, err := enc.Encrypt(key)
		if err != nil {
			return nil, err
		}
		out.Scores = append(out.Scores, ct)
	}
	return out, nil
}

// gate is one compare-exchange: after execution, position i holds the item
// that sorts first.
type gate struct{ i, j int }

// batcherLayers generates the odd-even merge sort network for n a power of
// two, grouped into layers of independent gates.
func batcherLayers(n int) [][]gate {
	var seq []gate
	var sortRange func(lo, cnt int)
	var mergeRange func(lo, cnt, step int)
	mergeRange = func(lo, cnt, step int) {
		s2 := step * 2
		if s2 < cnt {
			mergeRange(lo, cnt, s2)
			mergeRange(lo+step, cnt, s2)
			for i := lo + step; i+step < lo+cnt; i += s2 {
				seq = append(seq, gate{i, i + step})
			}
		} else {
			seq = append(seq, gate{lo, lo + step})
		}
	}
	sortRange = func(lo, cnt int) {
		if cnt > 1 {
			m := cnt / 2
			sortRange(lo, m)
			sortRange(lo+m, m)
			mergeRange(lo, cnt, 1)
		}
	}
	sortRange(0, n)

	// Greedy layering preserving sequential order: a gate joins the
	// current layer only if neither endpoint is already used in it.
	var layers [][]gate
	used := map[int]bool{}
	var cur []gate
	flush := func() {
		if len(cur) > 0 {
			layers = append(layers, cur)
			cur = nil
			used = map[int]bool{}
		}
	}
	for _, g := range seq {
		if used[g.i] || used[g.j] {
			flush()
		}
		cur = append(cur, g)
		used[g.i] = true
		used[g.j] = true
	}
	flush()
	return layers
}

// slots lists every ciphertext of the item, id digests first.
func (it Item) slots() []*paillier.Ciphertext {
	return append(append([]*paillier.Ciphertext(nil), it.EHL.Cts...), it.Scores...)
}

// withSlots returns an item shaped like it that holds the given slots. The
// two halves are capped, so appending to one cannot reach its neighbour.
func (it Item) withSlots(slots []*paillier.Ciphertext) Item {
	w, n := len(it.EHL.Cts), len(slots)
	return Item{EHL: &ehl.List{Kind: it.EHL.Kind, Cts: slots[:w:w]}, Scores: slots[w:n:n]}
}

// runGateLayer executes one layer of independent compare-exchange gates in
// two rounds: a hidden-comparison batch and a selection/recovery batch.
func runGateLayer(ctx context.Context, c *cloud.Client, work []Item, layer []gate, col int, desc bool, magBits int) error {
	// Round 1: hidden comparison bits. For ascending order the gate keeps
	// (i, j) when key_i <= key_j; descending swaps the operands.
	as := make([]*paillier.Ciphertext, len(layer))
	bs := make([]*paillier.Ciphertext, len(layer))
	for k, g := range layer {
		if desc {
			as[k], bs[k] = work[g.j].Scores[col], work[g.i].Scores[col]
		} else {
			as[k], bs[k] = work[g.i].Scores[col], work[g.j].Scores[col]
		}
	}
	bits, err := EncCompareHiddenBatch(ctx, c, as, bs, magBits)
	if err != nil {
		return err
	}

	// Round 2: oblivious swap. Only position i's slots are selected; the
	// partner follows homomorphically as Enc(I) * Enc(J) * Enc(new_i)^-1,
	// which encrypts I + J - new_i: the other of the two, for id digests
	// mod N as for scores. The recovered new_i carries randomness neither
	// input has, so new_j does not repeat an input ciphertext either.
	var sels []Selection
	var sums []*paillier.Ciphertext
	pk := c.PK()
	for k, g := range layer {
		if len(work[g.i].EHL.Cts) != len(work[g.j].EHL.Cts) || len(work[g.i].Scores) != len(work[g.j].Scores) {
			return fmt.Errorf("protocols: gate (%d,%d) items differ in shape", g.i, g.j)
		}
		I, J := work[g.i].slots(), work[g.j].slots()
		for s := range I {
			sum, err := pk.Add(I[s], J[s])
			if err != nil {
				return err
			}
			sels = append(sels, Pick(bits[k], I[s], J[s]))
			sums = append(sums, sum)
		}
	}
	first, err := Select(ctx, c, sels)
	if err != nil {
		return err
	}
	second, err := subAll(pk, sums, first)
	if err != nil {
		return err
	}
	at := 0
	for _, g := range layer {
		w := len(work[g.i].EHL.Cts) + len(work[g.i].Scores)
		work[g.i], work[g.j] = work[g.i].withSlots(first[at:at+w]), work[g.j].withSlots(second[at:at+w])
		at += w
	}
	return nil
}

// tournamentLayers returns selection pass p over positions p..n-1 as a
// single-elimination tournament: layer l holds the independent gates
// (p + j*2^(l+1), p + j*2^(l+1) + 2^l), a position without a partner gets
// a bye, and after the last layer position p holds the winner. That is
// n-1-p gates in ceil(log2(n-p)) layers.
func tournamentLayers(p, n int) [][]gate {
	var layers [][]gate
	for step := 1; p+step < n; step <<= 1 {
		var layer []gate
		for i := p; i+step < n; i += 2 * step {
			layer = append(layer, gate{i, i + step})
		}
		layers = append(layers, layer)
	}
	return layers
}

// EncSelectTop partially orders items so positions 0..k-1 hold the top k
// by the key column (descending when desc, which is the engine's use:
// largest worst scores first). It runs k selection passes; pass p is a
// tournament over positions p..n-1 that leaves the best remaining item at
// p (see tournamentLayers). The gate count is O(k*l), cheaper than a full
// sort for the small k of a top-k query, and the gates of one tournament
// layer do not depend on each other, so they share one comparison batch
// and one recovery batch as Section 10.3 argues for EncSort's network
// layers: 2*ceil(log2(n-p)) rounds per pass, not 2*(n-1-p). Equal keys
// keep the lower position. The remaining positions hold the leftovers in
// arbitrary order.
func EncSelectTop(ctx context.Context, c *cloud.Client, items []Item, col int, desc bool, k, magBits int) ([]Item, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	cols := len(items[0].Scores)
	if col < 0 || col >= cols {
		return nil, fmt.Errorf("protocols: selection column %d out of range", col)
	}
	if k < 0 {
		return nil, errors.New("protocols: negative k")
	}
	work := make([]Item, n)
	copy(work, items)
	if k > n {
		k = n
	}
	for p := 0; p < k; p++ {
		for _, layer := range tournamentLayers(p, n) {
			if err := runGateLayer(ctx, c, work, layer, col, desc, magBits+2); err != nil {
				return nil, err
			}
		}
	}
	return work, nil
}
