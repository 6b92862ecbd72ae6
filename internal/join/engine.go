package join

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/protocols"
)

// Engine is S1's side of the secure top-k join operator ./sec.
type Engine struct {
	client *cloud.Client
	er1    *EncRelation
	er2    *EncRelation
	// maxScoreBits bounds attribute magnitudes for comparison masks.
	maxScoreBits int
}

// NewEngine builds the join engine over two encrypted relations.
func NewEngine(client *cloud.Client, er1, er2 *EncRelation, maxScoreBits int) (*Engine, error) {
	if client == nil {
		return nil, errors.New("join: nil client")
	}
	if er1 == nil || er2 == nil || er1.N == 0 || er2.N == 0 {
		return nil, errors.New("join: empty encrypted relation")
	}
	if maxScoreBits <= 0 {
		return nil, errors.New("join: maxScoreBits must be positive")
	}
	return &Engine{client: client, er1: er1, er2: er2, maxScoreBits: maxScoreBits}, nil
}

func (e *Engine) validateToken(tk *Token) error {
	if tk == nil {
		return errors.New("join: nil token")
	}
	check := func(p, m int, what string) error {
		if p < 0 || p >= m {
			return fmt.Errorf("join: token %s position %d out of range [0,%d)", what, p, m)
		}
		return nil
	}
	if err := check(tk.JoinPos1, e.er1.M, "join-1"); err != nil {
		return err
	}
	if err := check(tk.JoinPos2, e.er2.M, "join-2"); err != nil {
		return err
	}
	if err := check(tk.ScorePos1, e.er1.M, "score-1"); err != nil {
		return err
	}
	if err := check(tk.ScorePos2, e.er2.M, "score-2"); err != nil {
		return err
	}
	for _, p := range tk.Proj1 {
		if err := check(p, e.er1.M, "projection-1"); err != nil {
			return err
		}
	}
	for _, p := range tk.Proj2 {
		if err := check(p, e.er2.M, "projection-2"); err != nil {
			return err
		}
	}
	if tk.K <= 0 {
		return errors.New("join: token k must be positive")
	}
	return nil
}

// SecJoin executes the oblivious nested-loop equi-join (Algorithm 11):
// for every candidate pair (i, j), one hidden equality bit selects either
// the real combined tuple (score = R1.scoreA + R2.scoreB, projected
// attributes) or an all-zero tuple. SecFilter then drops the zero tuples
// and EncSelectTop ranks the survivors by score, returning the encrypted
// top-k joined tuples.
//
// Neither server learns which pairs joined: S2 sees only the permuted
// equality pattern and the join cardinality; S1 sees only the cardinality
// (Section 12.4).
func (e *Engine) SecJoin(ctx context.Context, tk *Token) ([]protocols.JoinTuple, error) {
	if err := e.validateToken(tk); err != nil {
		return nil, err
	}
	pk, enc := e.client.PK(), e.client.Enc()

	// Phase 1: hidden equality bits for every candidate pair, in random
	// order (Algorithm 11 line 3).
	type pair struct{ i, j int }
	pairs := make([]pair, 0, e.er1.N*e.er2.N)
	for i := 0; i < e.er1.N; i++ {
		for j := 0; j < e.er2.N; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	eqCts := make([]*paillier.Ciphertext, len(pairs))
	for idx, p := range pairs {
		ct, err := ehl.SubEnc(enc, e.er1.Tuples[p.i][tk.JoinPos1].EHL, e.er2.Tuples[p.j][tk.JoinPos2].EHL)
		if err != nil {
			return nil, fmt.Errorf("join: eq(%d,%d): %w", p.i, p.j, err)
		}
		eqCts[idx] = ct
	}
	bits, err := protocols.EqBitsPermuted(ctx, e.client, eqCts)
	if err != nil {
		return nil, err
	}

	// Phase 2: select each candidate tuple under the outer layer:
	// score s_ij = t * (x_scoreA + x_scoreB), attributes x' = t * x
	// (Algorithm 11 lines 7-10), Enc(0) when t = 0. One recovery round
	// resolves the whole nested loop.
	zero, err := enc.EncryptZero()
	if err != nil {
		return nil, err
	}
	nCols := 1 + len(tk.Proj1) + len(tk.Proj2)
	sels := make([]protocols.Selection, 0, len(pairs)*nCols)
	for idx, p := range pairs {
		scoreSum, err := pk.Add(e.er1.Tuples[p.i][tk.ScorePos1].Value, e.er2.Tuples[p.j][tk.ScorePos2].Value)
		if err != nil {
			return nil, err
		}
		cols := make([]*paillier.Ciphertext, 0, nCols)
		cols = append(cols, scoreSum)
		for _, pos := range tk.Proj1 {
			cols = append(cols, e.er1.Tuples[p.i][pos].Value)
		}
		for _, pos := range tk.Proj2 {
			cols = append(cols, e.er2.Tuples[p.j][pos].Value)
		}
		for _, colCt := range cols {
			sels = append(sels, protocols.Pick(bits[idx], colCt, zero))
		}
	}
	resolved, err := protocols.Select(ctx, e.client, sels)
	if err != nil {
		return nil, err
	}
	candidates := make([]protocols.JoinTuple, len(pairs))
	for idx := range pairs {
		base := idx * nCols
		candidates[idx] = protocols.JoinTuple{
			Score: resolved[base],
			Attrs: resolved[base+1 : base+nCols],
		}
	}

	// Phase 3: drop the tuples that did not satisfy the join condition.
	joined, err := protocols.SecFilter(ctx, e.client, candidates)
	if err != nil {
		return nil, err
	}
	if len(joined) == 0 {
		return nil, nil
	}

	// Phase 4: rank by score and return the encrypted top-k
	// (Section 12.4's final EncSort step, via the top-k selection).
	items := make([]protocols.Item, len(joined))
	for i, t := range joined {
		id, err := ehl.RandomList(pk, ehl.Params{Kind: ehl.KindPlus, S: 1})
		if err != nil {
			return nil, err
		}
		items[i] = protocols.Item{EHL: id, Scores: append([]*paillier.Ciphertext{t.Score}, t.Attrs...)}
	}
	k := tk.K
	if k > len(items) {
		k = len(items)
	}
	ranked, err := protocols.EncSelectTop(ctx, e.client, items, 0, true, k, e.maxScoreBits+2)
	if err != nil {
		return nil, err
	}
	out := make([]protocols.JoinTuple, k)
	for i := 0; i < k; i++ {
		out[i] = protocols.JoinTuple{Score: ranked[i].Scores[0], Attrs: ranked[i].Scores[1:]}
	}
	return out, nil
}
