package protocols

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
)

// EncSort realizes the EncSort building block of [7] ("sorting behind the
// curtain"): S1 holds encrypted items and ends with the same multiset of
// items ordered by the designated score column, learning nothing about the
// order; S2 sees only masked comparator differences.
//
// Implementation: a Batcher odd-even merge sorting network (sortSchedule)
// whose compare-exchange gates are built from EncCompareHidden (the
// comparison bit stays encrypted) and the encrypted-selection gadget. The
// gates are grouped into layers as soon as their positions are written
// (see schedule), and each layer costs two rounds (one comparison batch,
// one recovery batch): O(log^2 m) layers, the depth the paper claims for
// the network (Section 10.3). col selects the key column; desc selects
// descending order; magBits bounds the key magnitudes.
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

	work := append([]Item(nil), items...)
	for _, layer := range sortSchedule(n).layers {
		if err := runGateLayer(ctx, c, work, layer, col, desc, magBits+2); err != nil {
			return nil, err
		}
	}
	return work, nil
}

// gate is one compare-exchange: after execution, position i holds the item
// that sorts first.
type gate struct{ i, j int }

// schedule groups a gate program into layers as the gates are added: each
// gate goes in the first layer after the last gate that wrote either of
// its two positions. A gate reads and writes both its positions, so that
// is the earliest layer that keeps every position's gates in program
// order, and no position appears twice in a layer. The layers depend on
// the program alone, never on a key.
type schedule struct {
	program []gate // every gate, in the order added
	ready   []int  // ready[x] is the first layer after x's last gate
	layers  [][]gate
}

func newSchedule(n int) *schedule { return &schedule{ready: make([]int, n)} }

func (s *schedule) add(g gate) {
	l := max(s.ready[g.i], s.ready[g.j])
	if l == len(s.layers) {
		s.layers = append(s.layers, nil)
	}
	s.program = append(s.program, g)
	s.layers[l] = append(s.layers[l], g)
	s.ready[g.i], s.ready[g.j] = l+1, l+1
}

// sortSchedule schedules Batcher's odd-even merge sort for n items: the
// network for the next power of two less every gate that touches a
// position >= n. Padding those positions with keys that sort after every
// real key would keep the pads there through every gate, since a gate puts
// the item that sorts first at its lower position; so none of the dropped
// gates would swap, and the rest sort any n items.
func sortSchedule(n int) *schedule {
	s := newSchedule(n)
	add := func(i, j int) {
		if j < n {
			s.add(gate{i, j})
		}
	}
	var mergeRange func(lo, cnt, step int)
	mergeRange = func(lo, cnt, step int) {
		s2 := step * 2
		if s2 < cnt {
			mergeRange(lo, cnt, s2)
			mergeRange(lo+step, cnt, s2)
			for i := lo + step; i+step < lo+cnt; i += s2 {
				add(i, i+step)
			}
		} else {
			add(lo, lo+step)
		}
	}
	var sortRange func(lo, cnt int)
	sortRange = func(lo, cnt int) {
		if cnt > 1 {
			m := cnt / 2
			sortRange(lo, m)
			sortRange(lo+m, m)
			mergeRange(lo, cnt, 1)
		}
	}
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	sortRange(0, p2)
	return s
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

// selectSchedule schedules k selection passes over n positions. Pass p is
// a single-elimination bracket over the live positions p..n-1: it pairs
// the two live positions whose last write is earliest (the lower positions
// on a tie), the gate's winner lands at the lower of the two and stays
// live, and the other leaves the pass. Position p is the lowest live
// position, so it is never the one that leaves: it ends holding the pass's
// winner. That is n-1-p gates per pass, and a pass starts on the positions
// the previous one has finished with while that one is still running.
func selectSchedule(n, k int) *schedule {
	s := newSchedule(n)
	for p := 0; p < k && p < n; p++ {
		live := &byReady{ready: s.ready}
		for x := p; x < n; x++ {
			live.pos = append(live.pos, x)
		}
		heap.Init(live)
		for live.Len() > 1 {
			a, b := heap.Pop(live).(int), heap.Pop(live).(int)
			g := gate{min(a, b), max(a, b)}
			s.add(g)
			heap.Push(live, g.i)
		}
	}
	return s
}

// byReady is a heap of positions, earliest last write first, then lowest.
type byReady struct {
	pos   []int
	ready []int
}

func (h *byReady) Len() int { return len(h.pos) }
func (h *byReady) Less(a, b int) bool {
	x, y := h.pos[a], h.pos[b]
	return h.ready[x] < h.ready[y] || h.ready[x] == h.ready[y] && x < y
}
func (h *byReady) Swap(a, b int) { h.pos[a], h.pos[b] = h.pos[b], h.pos[a] }
func (h *byReady) Push(x any)    { h.pos = append(h.pos, x.(int)) }
func (h *byReady) Pop() any {
	x := h.pos[len(h.pos)-1]
	h.pos = h.pos[:len(h.pos)-1]
	return x
}

// SelectTopLayers is the number of gate layers EncSelectTop runs to put
// the top k of n items first. Each layer costs two rounds: one
// CompareHidden batch and one Recover batch.
func SelectTopLayers(n, k int) int { return len(selectSchedule(n, k).layers) }

// EncSelectTop partially orders items so positions 0..k-1 hold the top k
// by the key column (descending when desc, which is the engine's use:
// largest worst scores first). It runs k selection passes; pass p is a
// bracket over positions p..n-1 that leaves the best remaining item at p
// (see selectSchedule). The gate count is O(k*l), cheaper than a full sort
// for the small k of a top-k query, and gates that touch no common
// position share one comparison batch and one recovery batch, as Section
// 10.3 argues for EncSort's network layers, whichever pass they belong
// to. The schedule is a function of n and k alone. Equal keys keep the
// lower position. The remaining positions hold the leftovers in arbitrary
// order.
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
	work := append([]Item(nil), items...)
	for _, layer := range selectSchedule(n, k).layers {
		if err := runGateLayer(ctx, c, work, layer, col, desc, magBits+2); err != nil {
			return nil, err
		}
	}
	return work, nil
}
