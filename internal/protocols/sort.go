package protocols

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
)

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

// withSlots returns an item shaped like it, its declared width included,
// that holds the given slots. The two halves are capped, so appending to
// one cannot reach its neighbour.
func (it Item) withSlots(slots []*paillier.Ciphertext) Item {
	w, n := len(it.EHL.Cts), len(slots)
	return Item{EHL: &ehl.List{Cts: slots[:w:w]}, Scores: slots[w:n:n], ScoreBits: it.ScoreBits}
}

// runGateLayer executes one layer of independent compare-exchange gates in
// one round of the hidden-bit gadget (ApplyBits). For gate (i, j) S1 sends
// the masked key difference as the test and, per slot, the difference
// c1 - c0 of the gate's two orderings: maskedDiff's flip orders them so
// that c_b, where b is the sign S2 reads, is what position i must end
// with. The gadget returns Enc(b*(c1 - c0)), and position i takes
// new_i = c0 + b*(c1 - c0) = c_b. The partner follows homomorphically as
// Enc(I) * Enc(J) * Enc(new_i)^-1, which encrypts I + J - new_i: the
// other of the two, for id digests mod N as for scores. Every output
// carries randomness S2 put on it, so S1 cannot match it to an input.
// The score slots' payloads are blinded at the width the items declare
// (slotBits over every item of work, so every layer of a ranking blinds
// alike): a difference of two declared slots is itself within it.
func runGateLayer(ctx context.Context, c *cloud.Client, work []Item, layer []gate, col int, desc bool, magBits int) error {
	if len(layer) == 0 {
		return nil
	}
	first := work[layer[0].i]
	w := len(first.EHL.Cts) + len(first.Scores)
	for _, g := range layer {
		a, b := work[g.i], work[g.j]
		if len(a.EHL.Cts) != len(b.EHL.Cts) || len(a.Scores) != len(b.Scores) || len(a.EHL.Cts)+len(a.Scores) != w {
			return fmt.Errorf("protocols: gate (%d,%d) items differ in shape", g.i, g.j)
		}
	}
	pk := c.PK()
	diffs := make([]*paillier.Ciphertext, len(layer))
	c0s := make([]*paillier.Ciphertext, w*len(layer))
	c1s := make([]*paillier.Ciphertext, w*len(layer))
	err := parallel.ForEachCtx(ctx, len(layer), func(k int) error {
		g := layer[k]
		// For ascending order the gate keeps (i, j) when key_i <= key_j;
		// descending swaps the operands.
		a, b := work[g.i].Scores[col], work[g.j].Scores[col]
		if desc {
			a, b = b, a
		}
		d, flip, err := maskedDiff(c.Enc(), a, b, magBits)
		if err != nil {
			return err
		}
		diffs[k] = d
		// S2 reads b = keep XOR flip, so c1 is I unless flipped.
		c0, c1 := work[g.j].slots(), work[g.i].slots()
		if flip {
			c0, c1 = c1, c0
		}
		copy(c0s[k*w:], c0)
		copy(c1s[k*w:], c1)
		return nil
	})
	if err != nil {
		return err
	}
	pay, err := subAll(pk, c1s, c0s)
	if err != nil {
		return err
	}
	picked, _, err := ApplyBits(ctx, c, cloud.MethodCompareHidden, 1, w, diffs, pay, slotBits(work))
	if err != nil {
		return err
	}
	out := make([]*paillier.Ciphertext, w*len(layer))
	sums := make([]*paillier.Ciphertext, w*len(layer))
	err = parallel.ForEachCtx(ctx, len(layer), func(k int) error {
		I, J := work[layer[k].i].slots(), work[layer[k].j].slots()
		for s := 0; s < w; s++ {
			var err error
			if out[k*w+s], err = pk.Add(c0s[k*w+s], picked[k*w+s]); err != nil {
				return err
			}
			if sums[k*w+s], err = pk.Add(I[s], J[s]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	second, err := subAll(pk, sums, out)
	if err != nil {
		return err
	}
	for k, g := range layer {
		at := k * w
		work[g.i], work[g.j] = work[g.i].withSlots(out[at:at+w]), work[g.j].withSlots(second[at:at+w])
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

// fixedPrograms are compare-exchange programs for one n, each ordering
// the first k positions, that take fewer layers at their shapes than
// Batcher's network or the selection passes. TestRankSchedule runs each
// over every 0-1 input of its n.
var fixedPrograms = []struct {
	n, k    int
	program []gate
}{
	// A top-2 selector for 6 inputs: 4 layers, 9 gates, where the passes
	// take 5 layers for the same 9.
	{6, 2, []gate{{0, 1}, {2, 3}, {4, 5}, {0, 2}, {1, 4}, {3, 5}, {0, 1}, {2, 3}, {1, 2}}},
	// Knuth's depth-5 sorter for 6 inputs (TAOCP 5.3.4), a layer fewer
	// than Batcher's 6.
	{6, 6, []gate{{0, 5}, {1, 3}, {2, 4}, {1, 2}, {3, 4}, {0, 3}, {2, 5}, {0, 1}, {2, 3}, {4, 5}, {1, 2}, {3, 4}}},
}

// pruneSchedule schedules the gates of a program that can reach a
// position < k. A backward pass keeps a gate when either of its positions
// is still live and then marks both live, since a kept gate reads both;
// a dropped gate's positions are read by nothing kept after it. The kept
// gates are scheduled as they come (schedule.add), so a program that
// orders the first k positions still does.
func pruneSchedule(n, k int, program []gate) *schedule {
	live := make([]bool, n)
	for x := 0; x < k && x < n; x++ {
		live[x] = true
	}
	keep := make([]bool, len(program))
	for at := len(program) - 1; at >= 0; at-- {
		g := program[at]
		if live[g.i] || live[g.j] {
			keep[at], live[g.i], live[g.j] = true, true, true
		}
	}
	s := newSchedule(n)
	for at, g := range program {
		if keep[at] {
			s.add(g)
		}
	}
	return s
}

// rankSchedule is the schedule EncSelectTop runs for the top k of n
// items, chosen among candidates that each order the first k positions:
// k selection passes (selectSchedule), Batcher's network (sortSchedule:
// the EncSort of [7] that Algorithm 3 line 9 names) and every fixed
// program for n that orders at least k positions, each of the last two
// pruned to the gates that reach a position < k. Every gate costs the
// same (runGateLayer) and every layer one round, so among the candidates
// with no more gates than the passes it takes the one with the fewest
// layers, then the fewest gates, the passes on a full tie. The
// candidates and the choice are functions of n and k alone.
func rankSchedule(n, k int) *schedule {
	best := selectSchedule(n, k)
	gates := len(best.program)
	consider := func(s *schedule) {
		g, l := len(s.program), len(s.layers)
		if g <= gates && (l < len(best.layers) || l == len(best.layers) && g < len(best.program)) {
			best = s
		}
	}
	consider(pruneSchedule(n, k, sortSchedule(n).program))
	for _, f := range fixedPrograms {
		if f.n == n && k <= f.k {
			consider(pruneSchedule(n, k, f.program))
		}
	}
	return best
}

// SelectTopLayers is the number of gate layers EncSelectTop runs to put
// the top k of n items first. Each layer costs one CompareHidden round.
func SelectTopLayers(n, k int) int { return len(rankSchedule(n, k).layers) }

// EncSelectTop partially orders items so positions 0..k-1 hold the top k
// by the key column (descending when desc, which is the engine's use:
// largest worst scores first). S1 ends with the items reordered and
// learns nothing about the order; S2 sees only masked comparator
// differences and blinded payloads. Each compare-exchange gate is a hidden
// comparison whose bit S2 applies to the gate's payloads itself
// (runGateLayer), and gates that touch no common position share one
// round, as Section 10.3 argues for EncSort's network layers. The gates
// come from rankSchedule: the shallowest of k selection passes, Batcher's
// network and a few fixed programs, each pruned to the first k positions,
// a function of n and k alone. Equal keys may land in either order, and
// the remaining positions hold the leftovers in arbitrary order. magBits
// bounds the key magnitudes.
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
	for i, it := range items {
		if err := it.Validate(cols); err != nil {
			return nil, fmt.Errorf("protocols: EncSelectTop item %d: %w", i, err)
		}
	}
	work := append([]Item(nil), items...)
	for _, layer := range rankSchedule(n, k).layers {
		if err := runGateLayer(ctx, c, work, layer, col, desc, magBits+2); err != nil {
			return nil, err
		}
	}
	return work, nil
}
