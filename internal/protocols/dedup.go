package protocols

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/zmath"
)

// PairSet enumerates which item pairs a dedup round should test for
// equality. AllPairs is Algorithm 7's full upper triangle; Bipartite is
// SecUpdate's block between newly appended items and the existing list.
type PairSet struct {
	Pairs [][2]int
}

// AllPairs returns the upper-triangle pair set over n items.
func AllPairs(n int) PairSet {
	var out PairSet
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Pairs = append(out.Pairs, [2]int{i, j})
		}
	}
	return out
}

// Bipartite returns the pair set {(a, b) : a in A, b in B}.
func Bipartite(a, b []int) PairSet {
	var out PairSet
	for _, i := range a {
		for _, j := range b {
			out.Pairs = append(out.Pairs, [2]int{i, j})
		}
	}
	return out
}

// SecDedup runs the oblivious deduplication protocol over the pair set:
// Algorithm 7 (Replace mode; Qry_F marks its duplicates with
// MarkDuplicates instead, in no round), the SecDupElim variant of Section
// 10.1 (Eliminate, Qry_E) and the score-merging variant used by batched
// processing (Merge).
//
// Replace mode keeps every row, so it runs as one grouped round of the
// hidden-bit gadget (replaceDuplicates): S2 reads, per row, the OR of
// its equality tests and applies it to payloads S1 built, and neither
// party learns which rows were replaced. The two modes that shrink the
// list run on Algorithm 7's blind records:
//
//  1. S1 computes randomized equality ciphertexts over the pair set from
//     the *unblinded* EHLs;
//  2. S1 additively blinds every slot of every item, encrypts the blind
//     vector under its own ephemeral key, and permutes everything;
//  3. one round with S2 eliminates/merges duplicates and re-blinds +
//     re-permutes the survivors;
//  4. S1 decrypts the returned blind vectors and removes them.
//
// S2 learns only the equality pattern of the permuted pair set; S1 learns
// only the surviving row count (the uniqueness pattern UP^d, and only in
// the eliminate/merge modes — replace mode preserves the count).
func SecDedup(ctx context.Context, c *cloud.Client, items []Item, mode cloud.DedupMode, pairs PairSet, mergeCols []int) ([]Item, error) {
	if len(items) == 0 {
		return nil, nil
	}
	cols := len(items[0].Scores)
	for i, it := range items {
		if err := it.Validate(cols); err != nil {
			return nil, fmt.Errorf("protocols: SecDedup item %d: %w", i, err)
		}
	}
	for _, p := range pairs.Pairs {
		if p[0] < 0 || p[0] >= len(items) || p[1] < 0 || p[1] >= len(items) || p[0] == p[1] {
			return nil, fmt.Errorf("protocols: SecDedup pair %v out of range", p)
		}
	}
	if mode == cloud.DedupReplace {
		return replaceDuplicates(ctx, c, items, pairs)
	}
	pk := c.PK()

	// Step 1: equality ciphertexts over unblinded EHLs, built in parallel.
	eqCts, err := parallel.MapErrCtx(ctx, pairs.Pairs, func(_ int, p [2]int) (*big.Int, error) {
		ct, err := ehl.SubEnc(c.Enc(), items[p[0]].EHL, items[p[1]].EHL)
		if err != nil {
			return nil, fmt.Errorf("protocols: SecDedup eq %v: %w", p, err)
		}
		return ct.C, nil
	})
	if err != nil {
		return nil, err
	}

	// Step 2: blind and permute, item-per-worker (every slot's blind is
	// encrypted under the ephemeral key).
	perm, err := prf.RandomPerm(len(items))
	if err != nil {
		return nil, err
	}
	rows := make([]cloud.WireRow, len(items))
	err = parallel.ForEachCtx(ctx, len(items), func(i int) error {
		cts, blinds, err := blindSlots(c.Enc(), c.EphEnc(), items[i].slots())
		if err != nil {
			return fmt.Errorf("protocols: SecDedup blinding item %d: %w", i, err)
		}
		w := len(items[i].EHL.Cts)
		rows[perm[i]] = cloud.WireRow{EHL: cts[:w:w], Scores: cts[w:], Blinds: blinds}
		return nil
	})
	if err != nil {
		return nil, err
	}
	req := &cloud.DedupRequest{
		Mode:      mode,
		Rows:      rows,
		MergeCols: mergeCols,
	}
	for k, p := range pairs.Pairs {
		req.PairI = append(req.PairI, perm[p[0]])
		req.PairJ = append(req.PairJ, perm[p[1]])
		req.PairCts = append(req.PairCts, eqCts[k])
	}

	// Step 3: the oblivious round.
	resp, err := c.DedupRound(ctx, req)
	if err != nil {
		return nil, err
	}
	c.Ledger().Record("S1", cloud.MethodDedup, "uniqueness pattern: %d of %d items kept", len(resp.Rows), len(items))

	// Step 4: unblind, row-per-worker (each row decrypts its whole blind
	// vector under the ephemeral key).
	out := make([]Item, len(resp.Rows))
	width := items[0].EHL.Width()
	err = parallel.ForEachCtx(ctx, len(resp.Rows), func(i int) error {
		row := resp.Rows[i]
		if len(row.EHL) != width || len(row.Scores) != cols {
			return fmt.Errorf("protocols: SecDedup reply row %d has unexpected shape", i)
		}
		slots, err := unblindSlots(pk, c.Ephemeral(), append(row.EHL[:width:width], row.Scores...), row.Blinds)
		if err != nil {
			return fmt.Errorf("protocols: SecDedup unblinding row %d: %w", i, err)
		}
		out[i] = items[0].withSlots(slots)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// replaceDuplicates is SecDedup's Replace mode as one round of the gadget
// with grouped tests. S1 draws a fresh order of the n rows; row i's group
// holds its zero tests against the rows the pair set links it to that
// come before it in that order, so its bit t_i — the OR S2 reads — is set
// iff an earlier row is the same object, and the row becomes
// row + t_i*(sentinel_i - row). Exactly the first copy of each object in
// S1's order survives; an OR and not a sum is what keeps a third copy
// from landing on twice the sentinel. Every group is padded to n - 1 with
// pooled encryptions of uniform values — distributed as an unequal test,
// zero only with probability 1/N — and shuffled, so the groups S2
// reads have one size whatever the equality pattern. Row count and order
// are unchanged, and no blind record, ephemeral key or S2 permutation is
// involved: S2 never sees a row, only blinded payloads.
func replaceDuplicates(ctx context.Context, c *cloud.Client, items []Item, pairs PairSet) ([]Item, error) {
	n := len(items)
	if n < 2 {
		return append([]Item(nil), items...), nil
	}
	pk := c.PK()
	order, err := prf.RandomPerm(n)
	if err != nil {
		return nil, err
	}
	linked := make(map[[2]int]bool, 2*len(pairs.Pairs))
	for _, p := range pairs.Pairs {
		linked[p], linked[[2]int{p[1], p[0]}] = true, true
	}
	// against[i*group+x] is the row test x of row i's group compares it
	// with, or -1 for padding.
	group := n - 1
	against := make([]int, n*group)
	for i := range items {
		var earlier []int
		for j := range items {
			if order[j] < order[i] && linked[[2]int{i, j}] {
				earlier = append(earlier, j)
			}
		}
		shuffle, err := prf.RandomPerm(group)
		if err != nil {
			return nil, err
		}
		for x := range shuffle {
			j := -1
			if x < len(earlier) {
				j = earlier[x]
			}
			against[i*group+shuffle[x]] = j
		}
	}
	tests, err := parallel.MapErrCtx(ctx, against, func(x, j int) (*paillier.Ciphertext, error) {
		if j < 0 {
			u, err := zmath.RandInt(rand.Reader, pk.N)
			if err != nil {
				return nil, err
			}
			return c.Enc().Encrypt(u)
		}
		ct, err := ehl.SubEnc(c.Enc(), items[x/group].EHL, items[j].EHL)
		if err != nil {
			return nil, fmt.Errorf("protocols: SecDedup eq(%d,%d): %w", x/group, j, err)
		}
		return ct, nil
	})
	if err != nil {
		return nil, err
	}
	pay, err := sentinelDiffs(pk, items)
	if err != nil {
		return nil, err
	}
	width := len(pay) / n
	applied, _, err := ApplyBits(ctx, c, cloud.MethodEqBits, group, width, tests, pay, slotBits(items))
	if err != nil {
		return nil, err
	}
	out := make([]Item, n)
	for i, it := range items {
		slots := it.slots()
		for s := range slots {
			if slots[s], err = pk.Add(slots[s], applied[i*width+s]); err != nil {
				return nil, err
			}
		}
		out[i] = it.withSlots(slots)
	}
	return out, nil
}

// sentinelDiffs returns Enc(sentinel - slot) for every slot of every
// item, item after item: the payloads with which row + t*(sentinel - row)
// turns a duplicate into Algorithm 7's replacement row, a fresh uniform
// digest in every EHL slot and -1 in every score column. The sentinels
// are S1's own (1+N)^m, never sent: the gadget blinds each payload under
// a fresh nonce before S2 sees it.
func sentinelDiffs(pk *paillier.PublicKey, items []Item) ([]*paillier.Ciphertext, error) {
	one := &paillier.Ciphertext{C: zmath.One}
	var sentinels, slots []*paillier.Ciphertext
	for _, it := range items {
		for s, slot := range it.slots() {
			m := big.NewInt(-1)
			if s < it.EHL.Width() {
				var err error
				if m, err = zmath.RandInt(rand.Reader, pk.N); err != nil {
					return nil, err
				}
			}
			sentinel, err := pk.AddPlain(one, m)
			if err != nil {
				return nil, err
			}
			sentinels, slots = append(sentinels, sentinel), append(slots, slot)
		}
	}
	return subAll(pk, sentinels, slots)
}

// blindSlots additively blinds every ciphertext with a fresh alpha < N and
// records each alpha under the ephemeral key (Algorithm 7 lines 8-11). The
// blind is a fresh Enc(alpha) from enc, not (1+N)^alpha: the slots are
// often S2's own earlier replies, and a slot that kept its nonce power
// would let S2 link the row across rounds whatever the permutation.
func blindSlots(enc, ephEnc paillier.Encryptor, slots []*paillier.Ciphertext) (cts, blinds []*big.Int, err error) {
	pk := enc.Key()
	for _, slot := range slots {
		alpha, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return nil, nil, err
		}
		blind, err := enc.Encrypt(alpha)
		if err != nil {
			return nil, nil, err
		}
		blinded, err := pk.Add(slot, blind)
		if err != nil {
			return nil, nil, err
		}
		bct, err := ephEnc.Encrypt(alpha)
		if err != nil {
			return nil, nil, err
		}
		cts, blinds = append(cts, blinded.C), append(blinds, bct.C)
	}
	return cts, blinds, nil
}

// unblindSlots decrypts each recorded blind with the ephemeral secret key,
// reduces it mod N and takes it off its slot (Algorithm 7 lines 32-35).
func unblindSlots(pk *paillier.PublicKey, eph *paillier.PrivateKey, cts, blinds []*big.Int) ([]*paillier.Ciphertext, error) {
	if len(blinds) != len(cts) {
		return nil, errors.New("protocols: returned row has unexpected shape")
	}
	out := make([]*paillier.Ciphertext, len(cts))
	for i, ct := range cts {
		blind, err := eph.Decrypt(&paillier.Ciphertext{C: blinds[i]})
		if err != nil {
			return nil, err
		}
		if out[i], err = pk.AddPlain(&paillier.Ciphertext{C: ct}, blind.Neg(blind)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
