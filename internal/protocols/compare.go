package protocols

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/cloud"
	"repro/internal/dj"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/zmath"
)

// The comparison protocols realize the EncCompare functionality of [11]
// (Bost et al.) the paper uses as a black box: S1 holds Enc(a), Enc(b) and
// learns f = (a <= b); S2 holds the secret key.
//
// Implementation (documented substitution, see DESIGN.md): S1 computes
// d = 2a - 2b - 1 (strictly negative iff a <= b, and never zero, which
// removes the equality corner case), masks it multiplicatively with a
// random magnitude r and a random sign flip s, and sends Enc(±r*d). S2
// reports only the sign of the decryption; S1 undoes the flip. The hidden
// variant gets the sign back as E2(t) and undoes the flip homomorphically
// so not even S1 learns the order — that is the comparator used inside
// EncSort.

// maskedDiff builds Enc(±r(2a-2b-1)) and returns the ciphertext plus the
// sign flip that was applied. magBits bounds |a|,|b| so the mask range can
// be chosen with r*|d| < N/2.
func maskedDiff(enc paillier.Encryptor, a, b *paillier.Ciphertext, magBits int) (*paillier.Ciphertext, bool, error) {
	if magBits <= 0 {
		return nil, false, fmt.Errorf("protocols: magnitude bits must be positive, got %d", magBits)
	}
	pk := enc.Key()
	// |d| = |2a - 2b - 1| < 2^{magBits+2}; keep r*|d| below N/2.
	kappa := pk.N.BitLen() - magBits - 4
	if kappa < 16 {
		return nil, false, fmt.Errorf("protocols: modulus too small for %d-bit comparisons", magBits)
	}
	two := big.NewInt(2)
	a2, err := pk.MulConst(a, two)
	if err != nil {
		return nil, false, err
	}
	b2, err := pk.MulConst(b, two)
	if err != nil {
		return nil, false, err
	}
	d, err := pk.Sub(a2, b2)
	if err != nil {
		return nil, false, err
	}
	if d, err = pk.AddPlain(d, big.NewInt(-1)); err != nil {
		return nil, false, err
	}
	r, err := zmath.RandRange(rand.Reader, zmath.One, new(big.Int).Lsh(zmath.One, uint(kappa)))
	if err != nil {
		return nil, false, err
	}
	coin := make([]byte, 1)
	if _, err := rand.Read(coin); err != nil {
		return nil, false, err
	}
	flip := coin[0]&1 == 1
	if flip {
		r.Neg(r)
	}
	masked, err := pk.MulConst(d, r)
	if err != nil {
		return nil, false, err
	}
	// Fresh randomness so S2 cannot correlate the mask with earlier
	// ciphertexts.
	if masked, err = enc.Rerandomize(masked); err != nil {
		return nil, false, err
	}
	return masked, flip, nil
}

// EncCompare returns f = (a <= b), revealed to S1 (one round).
func EncCompare(ctx context.Context, c *cloud.Client, a, b *paillier.Ciphertext, magBits int) (bool, error) {
	out, err := EncCompareBatch(ctx, c, []*paillier.Ciphertext{a}, []*paillier.Ciphertext{b}, magBits)
	if err != nil {
		return false, err
	}
	return out[0], nil
}

// EncCompareBatch evaluates f_i = (a_i <= b_i) for each pair in one round.
func EncCompareBatch(ctx context.Context, c *cloud.Client, as, bs []*paillier.Ciphertext, magBits int) ([]bool, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("protocols: EncCompare length mismatch %d vs %d", len(as), len(bs))
	}
	if len(as) == 0 {
		return nil, nil
	}
	masked := make([]*paillier.Ciphertext, len(as))
	flips := make([]bool, len(as))
	err := parallel.ForEachCtx(ctx, len(as), func(i int) error {
		m, flip, err := maskedDiff(c.Enc(), as[i], bs[i], magBits)
		if err != nil {
			return err
		}
		masked[i], flips[i] = m, flip
		return nil
	})
	if err != nil {
		return nil, err
	}
	negs, err := c.CompareSigns(ctx, masked)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(as))
	for i := range out {
		// d < 0 iff a <= b; the flip inverts the observed sign.
		out[i] = negs[i] != flips[i]
	}
	return out, nil
}

// EncCompareHiddenBatch evaluates t_i = (a_i <= b_i) with the result left
// encrypted as E2(t_i): S2 sees only masked differences, S1 sees only
// ciphertext bits. One round.
func EncCompareHiddenBatch(ctx context.Context, c *cloud.Client, as, bs []*paillier.Ciphertext, magBits int) ([]*dj.Ciphertext, error) {
	if len(as) != len(bs) {
		return nil, fmt.Errorf("protocols: EncCompareHidden length mismatch %d vs %d", len(as), len(bs))
	}
	if len(as) == 0 {
		return nil, nil
	}
	masked := make([]*paillier.Ciphertext, len(as))
	flips := make([]bool, len(as))
	err := parallel.ForEachCtx(ctx, len(as), func(i int) error {
		m, flip, err := maskedDiff(c.Enc(), as[i], bs[i], magBits)
		if err != nil {
			return err
		}
		masked[i], flips[i] = m, flip
		return nil
	})
	if err != nil {
		return nil, err
	}
	bits, err := c.CompareSignsHidden(ctx, masked)
	if err != nil {
		return nil, err
	}
	err = parallel.ForEachCtx(ctx, len(bits), func(i int) error {
		if !flips[i] {
			return nil
		}
		// Undo the sign flip homomorphically: t = 1 - neg.
		nb, err := dj.OneMinusEnc(c.DJEnc(), bits[i])
		if err != nil {
			return err
		}
		bits[i] = nb
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bits, nil
}
