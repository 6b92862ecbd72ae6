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
	"repro/internal/zmath"
)

// DepthItem is one encrypted data item E(I) = (EHL(o), Enc(x)) read from a
// sorted list at the current depth (Section 6's item layout). ScoreBits,
// when positive, declares that every score of the item's list, and the
// difference of any two, lies in (-2^ScoreBits, 2^ScoreBits): the width
// SecWorstBest blinds its payloads at (Item.ScoreBits' rule; zero
// declares nothing).
type DepthItem struct {
	EHL       *ehl.List
	Score     *paillier.Ciphertext
	ScoreBits int
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
	out, err := secWorstBest(ctx, c, [][]DepthItem{items}, histories, true, false)
	if err != nil {
		return nil, err
	}
	return out[0].Worst, nil
}

// SecBestAll is the SecBest protocol (Algorithm 6) run for every item at
// the current depth at once: the best half of SecWorstBestAll.
func SecBestAll(ctx context.Context, c *cloud.Client, items []DepthItem, histories []ListHistory) ([]*paillier.Ciphertext, error) {
	out, err := secWorstBest(ctx, c, [][]DepthItem{items}, histories, false, true)
	if err != nil {
		return nil, err
	}
	return out[0].Best, nil
}

// DepthBounds is what one SecWorstBest round returns for one depth d of
// m items, item i read from list i. S1 can open none of it.
type DepthBounds struct {
	// Worst is Algorithm 4's worst bound over the depth's own items:
	// W_i = x_i + Σ_{j≠i} t_ij·x_j, t_ij = [o_i = o_j].
	Worst []*paillier.Ciphertext
	// Seen is the worst bound over every depth read so far:
	// x_i + Σ_{j≠i} Σ_{e≤d} [o_i = o_j^e]·x_j^e, every score of item i's
	// object the scan has read, since an object appears once a list.
	Seen []*paillier.Ciphertext
	// Best is Algorithm 6's best bound:
	// B_i = x_i + Σ_{j≠i} [bottom_j + Σ_{e<d} [o_i = o_j^e]·(x_j^e − bottom_j)].
	Best []*paillier.Ciphertext
	// Same[i][j] = Enc(t_ij) for every ordered pair of distinct items.
	Same [][]*paillier.Ciphertext
	// Prefix[i][j][e] = Enc([o_i = o_j^e]) for every list j ≠ i and every
	// earlier depth e < d: SecBest's bits.
	Prefix [][][]*paillier.Ciphertext
}

// SecWorstBestAll runs SecWorst (Algorithm 4) and SecBest (Algorithm 6)
// for every item at the current depth in one round of the hidden-bit
// gadget (ApplyBits), its bits permuted: SecWorstBestDepths over that one
// depth, returning its Worst, Best and Same.
//
// histories[j] must contain list j's seen prefix including the current
// depth; item i must be the current-depth item of histories[i]. There is
// one bit per ordered (item i, list j ≠ i, depth e <= d): Algorithm 6's
// bit set, so S2's view is the permuted equality pattern of the depth
// (leakage EP^d) and no more.
func SecWorstBestAll(ctx context.Context, c *cloud.Client, items []DepthItem, histories []ListHistory) (worst, best []*paillier.Ciphertext, same [][]*paillier.Ciphertext, err error) {
	out, err := secWorstBest(ctx, c, [][]DepthItem{items}, histories, true, true)
	if err != nil {
		return nil, nil, nil, err
	}
	return out[0].Worst, out[0].Best, out[0].Same, nil
}

// SecWorstBestDepths is SecWorst and SecBest for several consecutive
// depths in one round: depths[t] holds the items of the t-th of the last
// len(depths) depths of histories, each depth's bounds taken against the
// prefixes and bottoms as they stood at that depth. One bit per ordered
// (t, item i, list j ≠ i, depth e ≤ d_t) goes to S2 in one permuted
// EqBits batch, and every bit carries the same two payloads, a W slot and
// a B slot: x_j^e and x_j^e − bottom_j at an earlier depth e, x_j^d and
// Enc(0) at the item's own depth d. Every bit thus looks alike to S2,
// and the batch shows it only its count of ones. The answers come back
// split by depth. It serves the depths a query is certain to scan before
// its first halting check, which need nothing from each other's
// answers, and every later depth alone.
func SecWorstBestDepths(ctx context.Context, c *cloud.Client, depths [][]DepthItem, histories []ListHistory) ([]DepthBounds, error) {
	return secWorstBest(ctx, c, depths, histories, true, true)
}

// secWorstBest is SecWorstBestDepths computing only the requested halves:
// an unrequested half costs no equality bit and no payload slot, so one
// half alone sends one payload a bit. Seen and Prefix come with both.
func secWorstBest(ctx context.Context, c *cloud.Client, depths [][]DepthItem, histories []ListHistory, wantWorst, wantBest bool) ([]DepthBounds, error) {
	if len(depths) == 0 {
		return nil, errors.New("protocols: no depths")
	}
	m := len(depths[0])
	for _, items := range depths {
		if err := validateDepthItems(items); err != nil {
			return nil, err
		}
		if len(items) != m {
			return nil, fmt.Errorf("protocols: %d depth items where the first depth has %d", len(items), m)
		}
	}
	if len(histories) != m {
		return nil, fmt.Errorf("protocols: %d histories for %d items", len(histories), m)
	}
	D := len(depths)
	for j, h := range histories {
		if len(h.EHLs) < D || len(h.EHLs) != len(h.Scores) {
			return nil, fmt.Errorf("protocols: history %d malformed", j)
		}
	}
	pk := c.PK()
	both := wantWorst && wantBest
	// last(t, j) is where depth t's item of list j sits in its history.
	last := func(t, j int) int { return len(histories[j].EHLs) - D + t }
	bottom := func(t, j int) *paillier.Ciphertext { return histories[j].Scores[last(t, j)] }
	// A bit's slots: W's, then B's, each only when its half is asked for.
	slotW, slotB, width := 0, 0, 0
	if wantWorst {
		width++
	}
	if wantBest {
		slotB, width = width, width+1
	}
	// Every bound starts from the item's own score; the best bound also
	// takes every other list's bottom, which an earlier-depth match
	// replaces below.
	out := make([]DepthBounds, D)
	var err error
	for t, items := range depths {
		b := &out[t]
		b.Worst, b.Best = make([]*paillier.Ciphertext, m), make([]*paillier.Ciphertext, m)
		b.Same, b.Prefix = make([][]*paillier.Ciphertext, m), make([][][]*paillier.Ciphertext, m)
		if both {
			b.Seen = make([]*paillier.Ciphertext, m)
		}
		for i := range items {
			b.Worst[i], b.Best[i] = items[i].Score.Clone(), items[i].Score.Clone()
			if both {
				b.Seen[i] = items[i].Score.Clone()
			}
			b.Same[i], b.Prefix[i] = make([]*paillier.Ciphertext, m), make([][]*paillier.Ciphertext, m)
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				b.Prefix[i][j] = make([]*paillier.Ciphertext, last(t, j))
				if wantBest {
					if b.Best[i], err = pk.Add(b.Best[i], bottom(t, j)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	type ref struct{ t, i, j, e int }
	var refs []ref
	for t := range depths {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				for e := 0; j != i && e <= last(t, j); e++ {
					if e == last(t, j) && wantWorst || e < last(t, j) && wantBest {
						refs = append(refs, ref{t, i, j, e})
					}
				}
			}
		}
	}
	// The B slot of an earlier depth's bit is x_j^e - bottom_j (the
	// differences in one batch); of the item's own depth, S1's trivial
	// Enc(0), never sent: the gadget blinds every payload under a fresh
	// nonce before S2 sees it.
	zero := &paillier.Ciphertext{C: zmath.One}
	pay := make([]*paillier.Ciphertext, width*len(refs))
	var at []int
	var earlier, bottoms []*paillier.Ciphertext
	for k, r := range refs {
		x := histories[r.j].Scores[r.e]
		if r.e == last(r.t, r.j) {
			x = depths[r.t][r.j].Score
		}
		if wantWorst {
			pay[k*width+slotW] = x
		}
		if !wantBest {
			continue
		}
		if r.e == last(r.t, r.j) {
			pay[k*width+slotB] = zero
			continue
		}
		at = append(at, k)
		earlier, bottoms = append(earlier, x), append(bottoms, bottom(r.t, r.j))
	}
	diffs, err := subAll(pk, earlier, bottoms)
	if err != nil {
		return nil, err
	}
	for n, k := range at {
		pay[k*width+slotB] = diffs[n]
	}
	// The randomized equality ciphertexts are independent, so they build
	// in parallel — this is the largest S1-side batch of the per-depth
	// pipeline.
	tests, err := parallel.MapErrCtx(ctx, refs, func(_ int, r ref) (*paillier.Ciphertext, error) {
		ct, err := ehl.SubEnc(c.Enc(), depths[r.t][r.i].EHL, histories[r.j].EHLs[r.e])
		if err != nil {
			return nil, fmt.Errorf("protocols: SecWorstBest eq(%d,%d,%d): %w", r.i, r.j, r.e, err)
		}
		return ct, nil
	})
	if err != nil {
		return nil, err
	}
	bits := depths[0][0].ScoreBits
	for _, items := range depths {
		for _, it := range items {
			if it.ScoreBits != bits {
				bits = 0 // one width for every slot of the call, or none
			}
		}
	}
	chosen, eq, err := ApplyBits(ctx, c, cloud.MethodEqBits, 1, width, tests, pay, uniformBits(width, bits))
	if err != nil {
		return nil, err
	}
	// W_i takes its own depth's W slots, B_i the earlier depths' B slots,
	// and Seen every W slot.
	for k, r := range refs {
		b := &out[r.t]
		if both {
			if b.Seen[r.i], err = pk.Add(b.Seen[r.i], chosen[k*width+slotW]); err != nil {
				return nil, err
			}
		}
		if r.e == last(r.t, r.j) {
			b.Same[r.i][r.j] = eq[k]
			b.Worst[r.i], err = pk.Add(b.Worst[r.i], chosen[k*width+slotW])
		} else {
			b.Prefix[r.i][r.j][r.e] = eq[k]
			b.Best[r.i], err = pk.Add(b.Best[r.i], chosen[k*width+slotB])
		}
		if err != nil {
			return nil, err
		}
	}
	for t := range out {
		b := &out[t]
		if !wantWorst {
			b.Worst = nil
		}
		if !wantBest {
			b.Best = nil
		}
		if !both {
			b.Same, b.Prefix = nil, nil
		}
	}
	return out, nil
}

// MarkDuplicates is Qry_F's dedup of one depth (Algorithm 7, Replace
// mode) with no round: from the bits same[i][j] = Enc([o_i = o_j]) that
// SecWorstBestDepths returned, it turns every copy of an object but the
// first among the depth's items into a row that outranks no real object.
// Row i's count of earlier copies is Enc(u_i) = Π_{j<i} same[i][j], and
// one short power of Enc(u_i) shifts each score column by -u_i*shift. A
// row with u_i = 0 keeps its plaintexts. A row with u_i >= 1 gets
// negative scores, provided shift exceeds every real score: the property
// Algorithm 7's sentinel row has. A sum serves where replaceDuplicates
// needs an OR: a third copy lands on -2*shift, still negative. Every row
// keeps its digests: no zero test reads a row of T (TestWireRecorder), so
// a marked row's id is never compared again, and a marked row never
// ranks into an answer.
//
// The rows come back in the order given, their count unchanged, so S1
// keeps each row's list and depth (MarkEarlier needs them). Index order
// always marks the copy from the later list, so a caller that sends
// marked rows on (a ranking, where a comparison against a marked row
// shows by its size, DESIGN.md "The mark step") shuffles them first.
func MarkDuplicates(ctx context.Context, pk *paillier.PublicKey, items []Item, same [][]*paillier.Ciphertext, shift *big.Int) ([]Item, error) {
	if len(same) != len(items) {
		return nil, fmt.Errorf("protocols: %d rows of equality bits for %d items", len(same), len(items))
	}
	counts := make([][]*paillier.Ciphertext, len(items))
	for i := 1; i < len(items); i++ {
		if len(same[i]) < i {
			return nil, fmt.Errorf("protocols: item %d has %d equality bits, want %d", i, len(same[i]), i)
		}
		counts[i] = same[i][:i]
	}
	return MarkEarlier(ctx, pk, items, counts, shift)
}

// MarkEarlier is the mark step across depths: Qry_F's rows of earlier
// depths that a newer row of the same object now stands for. Row r's
// count is Enc(u_r) = Π bits[r], the equality bits of every newer row
// against it, and its score columns shift by -u_r*shift on one short
// power of Enc(u_r). Its digests stay. A row with no bits is returned as
// given; the rest come back in the order given.
func MarkEarlier(ctx context.Context, pk *paillier.PublicKey, rows []Item, bits [][]*paillier.Ciphertext, shift *big.Int) ([]Item, error) {
	if len(bits) != len(rows) {
		return nil, fmt.Errorf("protocols: %d rows of equality bits for %d items", len(bits), len(rows))
	}
	if shift == nil || shift.Sign() <= 0 || shift.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("protocols: duplicate shift %v outside (0, N)", shift)
	}
	out := make([]Item, len(rows))
	err := parallel.ForEachCtx(ctx, len(rows), func(i int) error {
		it := rows[i]
		if err := it.Validate(len(it.Scores)); err != nil {
			return fmt.Errorf("protocols: marking item %d: %w", i, err)
		}
		if len(bits[i]) == 0 {
			out[i] = it
			return nil
		}
		cs := make([]*big.Int, len(bits[i]))
		for j, b := range bits[i] {
			if b == nil || b.C == nil {
				return fmt.Errorf("protocols: item %d has no equality bit %d", i, j)
			}
			cs[j] = b.C
		}
		u := pk.EngineN2().ProdMod(cs)
		down, err := pk.Neg(&paillier.Ciphertext{C: pk.EngineN2().ExpMod(u, shift)})
		if err != nil {
			return err
		}
		scores := make([]*paillier.Ciphertext, len(it.Scores))
		for s, x := range it.Scores {
			if scores[s], err = pk.Add(x, down); err != nil {
				return err
			}
		}
		out[i] = Item{EHL: it.EHL, Scores: scores, ScoreBits: it.ScoreBits}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
