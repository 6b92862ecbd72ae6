// Package protocols implements the S1 side of the paper's two-party
// sub-protocols (Section 8.2 and Section 10): RecoverEnc, EncCompare,
// the encrypted-selection gadget, SecWorst, SecBest, SecDedup/SecDupElim,
// SecUpdate, EncSort / top-k selection, SecMult, and SecFilter.
//
// All functions drive the crypto cloud S2 through a cloud.Client; every
// value S2 sees is blinded and/or permuted first.
package protocols

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cloud"
	"repro/internal/dj"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/zmath"
)

// Score column conventions for Item.Scores used by the query engine.
const (
	// ColWorst is the accumulated worst (lower-bound) score W.
	ColWorst = 0
	// ColBest is the best (upper-bound) score B.
	ColBest = 1
)

// Item is an encrypted scored item E(I) = (EHL(o), Enc(W), Enc(B), ...):
// an encrypted object id plus one or more encrypted score columns.
type Item struct {
	EHL    *ehl.List
	Scores []*paillier.Ciphertext
}

// Clone deep-copies the item.
func (it Item) Clone() Item {
	out := Item{EHL: it.EHL.Clone(), Scores: make([]*paillier.Ciphertext, len(it.Scores))}
	for i, s := range it.Scores {
		out.Scores[i] = s.Clone()
	}
	return out
}

// Validate checks the item's shape.
func (it Item) Validate(cols int) error {
	if it.EHL == nil || len(it.EHL.Cts) == 0 {
		return errors.New("protocols: item missing EHL")
	}
	if len(it.Scores) != cols {
		return fmt.Errorf("protocols: item has %d score columns, want %d", len(it.Scores), cols)
	}
	for i, s := range it.Scores {
		if s == nil || s.C == nil {
			return fmt.Errorf("protocols: item score column %d is nil", i)
		}
	}
	return nil
}

// RecoverEnc strips the outer DJ layer from each double encryption
// E2(Enc(c)) with additive blinding (Algorithm 5), batched into a single
// round: S1 blinds with Enc(r_i), S2 removes the outer layer, S1 divides
// the blind back out. Blinding and unblinding fan out over the client's
// worker budget.
func RecoverEnc(ctx context.Context, c *cloud.Client, cts []*dj.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(cts) == 0 {
		return nil, nil
	}
	pk := c.PK()
	djPK := c.DJPK()
	blinded := make([]*dj.Ciphertext, len(cts))
	blinds := make([]*paillier.Ciphertext, len(cts))
	err := parallel.ForEachCtx(ctx, c.Parallelism(), len(cts), func(i int) error {
		r, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return err
		}
		encR, err := c.Enc().Encrypt(r)
		if err != nil {
			return err
		}
		blinds[i] = encR
		b, err := djPK.ExpCipher(cts[i], encR)
		if err != nil {
			return fmt.Errorf("protocols: RecoverEnc blind %d: %w", i, err)
		}
		blinded[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	recovered, err := c.Recover(ctx, blinded)
	if err != nil {
		return nil, err
	}
	// The reply is exactly Enc(c_i) * Enc(r_i) as a group element;
	// dividing by the same Enc(r_i) restores Enc(c_i). All the inverses
	// come from one Montgomery batch inversion (1 inversion + 3 mults per
	// ciphertext instead of an extended-GCD each).
	blindVals := make([]*big.Int, len(blinds))
	for i, b := range blinds {
		blindVals[i] = b.C
	}
	var invs []*big.Int
	if eng := pk.EngineN2(); eng != nil {
		invs, err = zmath.BatchModInverseMod(blindVals, eng)
	} else {
		invs, err = zmath.BatchModInverse(blindVals, pk.N2)
	}
	if err != nil {
		return nil, fmt.Errorf("protocols: RecoverEnc unblind: %w", err)
	}
	return parallel.MapErrCtx(ctx, c.Parallelism(), recovered, func(i int, rec *paillier.Ciphertext) (*paillier.Ciphertext, error) {
		if eng := pk.EngineN2(); eng != nil {
			return &paillier.Ciphertext{C: eng.MulMod(rec.C, invs[i])}, nil
		}
		v := new(big.Int).Mul(rec.C, invs[i])
		v.Mod(v, pk.N2)
		return &paillier.Ciphertext{C: v}, nil
	})
}

// selector accumulates encrypted-selection jobs so a whole batch resolves
// with one RecoverEnc round. Each job is the paper's gadget
//
//	E2(t)^{Enc(a)} * (E2(1)E2(t)^{-1})^{Enc(b)} = E2(Enc(t*a + (1-t)*b))
//
// which picks Enc(a) when t = 1 and Enc(b) when t = 0.
//
// add and addRaw only queue; the layered exponentiations — the dominant
// S1-side cost, since the exponent is a full first-layer ciphertext — are
// deferred to resolve, which builds every queued term in parallel before
// the single recovery round.
type selector struct {
	client *cloud.Client
	jobs   []selJob
}

// selJob is one queued selection. raw short-circuits term construction for
// callers that assembled the outer-layer ciphertext themselves.
type selJob struct {
	raw     *dj.Ciphertext
	t, notT *dj.Ciphertext
	a, b    *paillier.Ciphertext
}

func newSelector(c *cloud.Client) *selector { return &selector{client: c} }

// addRaw queues an already-built E2(Enc(x)) for recovery and returns its
// slot index.
func (s *selector) addRaw(ct *dj.Ciphertext) int {
	s.jobs = append(s.jobs, selJob{raw: ct})
	return len(s.jobs) - 1
}

// add queues select(t, a, b) and returns its slot index. notT must be
// E2(1-t) (callers typically reuse it across selects on the same bit).
// Queueing cannot fail; construction errors surface from resolve.
func (s *selector) add(t, notT *dj.Ciphertext, a, b *paillier.Ciphertext) int {
	s.jobs = append(s.jobs, selJob{t: t, notT: notT, a: a, b: b})
	return len(s.jobs) - 1
}

// resolve builds every queued selection term in parallel and executes the
// batched RecoverEnc round.
func (s *selector) resolve(ctx context.Context) ([]*paillier.Ciphertext, error) {
	djPK := s.client.DJPK()
	terms, err := parallel.MapErrCtx(ctx, s.client.Parallelism(), s.jobs, func(_ int, j selJob) (*dj.Ciphertext, error) {
		if j.raw != nil {
			return j.raw, nil
		}
		termA, err := djPK.ExpCipher(j.t, j.a)
		if err != nil {
			return nil, err
		}
		termB, err := djPK.ExpCipher(j.notT, j.b)
		if err != nil {
			return nil, err
		}
		return djPK.Add(termA, termB)
	})
	if err != nil {
		return nil, err
	}
	return RecoverEnc(ctx, s.client, terms)
}

// eqBitsPermuted ships randomized equality ciphertexts to S2 under a fresh
// random permutation (Algorithm 4 line 2), so S2 sees the equality pattern
// but not which pair a bit belongs to, and returns the hidden bits E2(t)
// in the order of eqCts.
func eqBitsPermuted(ctx context.Context, c *cloud.Client, eqCts []*paillier.Ciphertext) ([]*dj.Ciphertext, error) {
	perm, err := prf.RandomPerm(len(eqCts))
	if err != nil {
		return nil, err
	}
	permuted := make([]*paillier.Ciphertext, len(eqCts))
	for i := range eqCts {
		permuted[perm[i]] = eqCts[i]
	}
	bitsPermuted, err := c.EqBits(ctx, permuted)
	if err != nil {
		return nil, err
	}
	bits := make([]*dj.Ciphertext, len(eqCts))
	for i := range bits {
		bits[i] = bitsPermuted[perm[i]]
	}
	return bits, nil
}

// oneMinusAll computes E2(1-t) for a batch of hidden bits, drawing the
// E2(1) encryptions from the client's DJ nonce pool.
func oneMinusAll(ctx context.Context, c *cloud.Client, bits []*dj.Ciphertext) ([]*dj.Ciphertext, error) {
	return parallel.MapErrCtx(ctx, c.Parallelism(), bits, func(_ int, b *dj.Ciphertext) (*dj.Ciphertext, error) {
		return dj.OneMinusEnc(c.DJEnc(), b)
	})
}

// SecMult computes Enc(a_i * b_i) for each pair using the standard
// additively blinded two-party multiplication: S1 sends Enc(a+r_a),
// Enc(b+r_b); S2 returns Enc((a+r_a)(b+r_b)); S1 strips the cross terms
// homomorphically. One round for the whole batch.
func SecMult(ctx context.Context, c *cloud.Client, as, bs []*paillier.Ciphertext) ([]*paillier.Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("protocols: SecMult length mismatch %d vs %d", len(as), len(bs))
	}
	if len(as) == 0 {
		return nil, nil
	}
	pk := c.PK()
	blindedA := make([]*paillier.Ciphertext, len(as))
	blindedB := make([]*paillier.Ciphertext, len(as))
	ras := make([]*big.Int, len(as))
	rbs := make([]*big.Int, len(as))
	err := parallel.ForEachCtx(ctx, c.Parallelism(), len(as), func(i int) error {
		ra, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return err
		}
		rb, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return err
		}
		ras[i], rbs[i] = ra, rb
		if blindedA[i], err = pk.AddPlain(as[i], ra); err != nil {
			return err
		}
		// Re-randomize so S2 cannot link the blinded operands to
		// ciphertexts it may have produced earlier.
		if blindedA[i], err = c.Enc().Rerandomize(blindedA[i]); err != nil {
			return err
		}
		if blindedB[i], err = pk.AddPlain(bs[i], rb); err != nil {
			return err
		}
		if blindedB[i], err = c.Enc().Rerandomize(blindedB[i]); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	prods, err := c.MultBlinded(ctx, blindedA, blindedB)
	if err != nil {
		return nil, err
	}
	out := make([]*paillier.Ciphertext, len(as))
	err = parallel.ForEachCtx(ctx, c.Parallelism(), len(as), func(i int) error {
		// ab = (a+ra)(b+rb) - ra*b - rb*a - ra*rb
		t1, err := pk.MulConst(bs[i], new(big.Int).Neg(ras[i]))
		if err != nil {
			return err
		}
		t2, err := pk.MulConst(as[i], new(big.Int).Neg(rbs[i]))
		if err != nil {
			return err
		}
		rr := new(big.Int).Mul(ras[i], rbs[i])
		acc, err := pk.Add(prods[i], t1)
		if err != nil {
			return err
		}
		if acc, err = pk.Add(acc, t2); err != nil {
			return err
		}
		if acc, err = pk.AddPlain(acc, new(big.Int).Neg(rr)); err != nil {
			return err
		}
		out[i] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
