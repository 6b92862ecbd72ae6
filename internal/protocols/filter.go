package protocols

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/cloud"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/zmath"
)

// JoinTuple is one candidate joined tuple produced by SecJoin: an
// encrypted join score Enc(s) (zero iff the equi-join condition failed)
// plus the encrypted attributes of the combined tuple.
type JoinTuple struct {
	Score *paillier.Ciphertext
	Attrs []*paillier.Ciphertext
}

// Clone deep-copies the tuple.
func (t JoinTuple) Clone() JoinTuple {
	out := JoinTuple{Score: t.Score.Clone(), Attrs: make([]*paillier.Ciphertext, len(t.Attrs))}
	for i, a := range t.Attrs {
		out.Attrs[i] = a.Clone()
	}
	return out
}

// SecFilter removes the candidate tuples that did not satisfy the join
// condition (Algorithm 12). For each tuple S1 sends a zero-test — the join
// score times a random unit, so zero stays zero and nonzero becomes
// uniform — beside the score and attributes blinded additively, as
// SecDedup blinds an item; everything is permuted. S2 drops the rows whose
// test is zero, re-blinds and re-permutes the rest, and S1 removes the
// combined blinds. Both parties learn only the number of surviving tuples.
//
// Join scores must be nonzero for genuinely joined tuples, which holds for
// the paper's positive attribute domains.
func SecFilter(ctx context.Context, c *cloud.Client, tuples []JoinTuple) ([]JoinTuple, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	pk := c.PK()
	nAttrs := len(tuples[0].Attrs)
	for i, t := range tuples {
		if t.Score == nil || len(t.Attrs) != nAttrs {
			return nil, fmt.Errorf("protocols: SecFilter tuple %d malformed", i)
		}
	}
	perm, err := prf.RandomPerm(len(tuples))
	if err != nil {
		return nil, err
	}
	req := &cloud.FilterRequest{Rows: make([]cloud.WireRow, len(tuples)), Tests: make([]*big.Int, len(tuples))}
	err = parallel.ForEachCtx(ctx, len(tuples), func(i int) error {
		t := tuples[i]
		r, err := zmath.RandUnit(rand.Reader, pk.N)
		if err != nil {
			return err
		}
		test, err := pk.MulConst(t.Score, r)
		if err != nil {
			return err
		}
		// Re-randomize so S2 cannot link the test to a ciphertext it may
		// have produced earlier.
		if test, err = c.Enc().Rerandomize(test); err != nil {
			return err
		}
		cts, blinds, err := blindSlots(pk, c.EphEnc(), append([]*paillier.Ciphertext{t.Score}, t.Attrs...))
		if err != nil {
			return err
		}
		req.Tests[perm[i]] = test.C
		req.Rows[perm[i]] = cloud.WireRow{Scores: cts, Blinds: blinds}
		return nil
	})
	if err != nil {
		return nil, err
	}

	resp, err := c.FilterRound(ctx, req)
	if err != nil {
		return nil, err
	}
	c.Ledger().Record("S1", cloud.MethodFilter, "join cardinality: %d of %d tuples", len(resp.Rows), len(tuples))

	out := make([]JoinTuple, len(resp.Rows))
	err = parallel.ForEachCtx(ctx, len(resp.Rows), func(i int) error {
		row := resp.Rows[i]
		if len(row.Scores) != nAttrs+1 {
			return fmt.Errorf("protocols: SecFilter reply row %d malformed", i)
		}
		slots, err := unblindSlots(pk, c.Ephemeral(), row.Scores, row.Blinds)
		if err != nil {
			return fmt.Errorf("protocols: SecFilter unblinding row %d: %w", i, err)
		}
		out[i] = JoinTuple{Score: slots[0], Attrs: slots[1:]}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
