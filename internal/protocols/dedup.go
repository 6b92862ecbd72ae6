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

// SecDedup runs the oblivious deduplication protocol (Algorithm 7, plus
// the SecDupElim variant of Section 10.1 and the score-merging variant
// used by batched processing):
//
//  1. S1 computes randomized equality ciphertexts over the pair set from
//     the *unblinded* EHLs;
//  2. S1 additively blinds every slot of every item, encrypts the blind
//     vector under its own ephemeral key, and permutes everything;
//  3. one round with S2 replaces/eliminates/merges duplicates and
//     re-blinds + re-permutes the survivors;
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
	pk := c.PK()

	// Step 1: equality ciphertexts over unblinded EHLs, built in parallel.
	for _, p := range pairs.Pairs {
		if p[0] < 0 || p[0] >= len(items) || p[1] < 0 || p[1] >= len(items) || p[0] == p[1] {
			return nil, fmt.Errorf("protocols: SecDedup pair %v out of range", p)
		}
	}
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
		cts, blinds, err := blindSlots(pk, c.EphEnc(), items[i].slots())
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
	if mode == cloud.DedupReplace && len(resp.Rows) != len(items) {
		return nil, fmt.Errorf("protocols: replace-mode dedup changed row count %d -> %d", len(items), len(resp.Rows))
	}
	if mode != cloud.DedupReplace {
		c.Ledger().Record("S1", cloud.MethodDedup, "uniqueness pattern: %d of %d items kept", len(resp.Rows), len(items))
	}

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

// blindSlots additively blinds every ciphertext with a fresh alpha < N and
// records each alpha under the ephemeral key (Algorithm 7 lines 8-11).
func blindSlots(pk *paillier.PublicKey, ephEnc paillier.Encryptor, slots []*paillier.Ciphertext) (cts, blinds []*big.Int, err error) {
	for _, slot := range slots {
		alpha, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return nil, nil, err
		}
		blinded, err := pk.AddPlain(slot, alpha)
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
