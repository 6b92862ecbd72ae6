package protocols

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/cloud"
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
// removes the equality corner case), masks it with a random magnitude r,
// an additive term r' uniform in [0, r) and a random sign flip s, and
// sends Enc(s·(r·d + r')). S2 reports only the sign of the decryption; S1
// undoes the flip. Inside EncSelectTop's compare-exchange gates the sign
// is never revealed: S1 orders the gate's two payloads by its flip and S2
// returns the one the sign names (runGateLayer), so not even S1 learns
// the order.

// maskedDiff builds Enc(s·(r·d + r')) for d = 2a-2b-1 and returns the
// ciphertext plus the sign flip s that was applied. magBits bounds
// |a|,|b| so the mask range can be chosen with |r·d + r'| < N/2.
//
// The sign survives r': |r·d| >= r > r' >= 0. Without r', S2's
// decryption ±r·d is a multiple of |d|, and trial division recovers |d|
// to a handful of candidates; with it, |d| divides the decryption only
// as often as it divides r', about 1/|d| of the time. What remains is a
// bound: |d| >= |v|/2^kappa for the decryption v (DESIGN.md "Documented
// substitutions"). Enc(s·r') stands in for the Enc(0) a Rerandomize
// would multiply in, so the term costs no exponentiation, byte or round.
func maskedDiff(enc paillier.Encryptor, a, b *paillier.Ciphertext, magBits int) (*paillier.Ciphertext, bool, error) {
	if magBits <= 0 {
		return nil, false, fmt.Errorf("protocols: magnitude bits must be positive, got %d", magBits)
	}
	pk := enc.Key()
	// |d| = |2a - 2b - 1| < 2^{magBits+2} and r < 2^kappa, so
	// |r·d + r'| < r·(|d| + 1) <= 2^{kappa+magBits+2} = 2^{|N|-2}: the
	// additive term needs no headroom beyond the product's.
	kappa := pk.N.BitLen() - magBits - 4
	if kappa < 16 {
		return nil, false, fmt.Errorf("protocols: modulus too small for %d-bit comparisons", magBits)
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
	// s·r·d = r·(2hi - 2lo + s) with (hi, lo, s) = (a, b, -1), or
	// (b, a, +1) under the flip: one power of Enc(hi - lo) by the positive
	// 2r, never an |N|-bit exponent for a negative r mod N.
	hi, lo, sr := a, b, new(big.Int).Neg(r)
	if flip {
		hi, lo, sr = b, a, r
	}
	diff, err := pk.Sub(hi, lo)
	if err != nil {
		return nil, false, err
	}
	masked, err := lonePower(pk, diff, new(big.Int).Lsh(r, 1))
	if err != nil {
		return nil, false, err
	}
	if masked, err = pk.AddPlain(masked, sr); err != nil {
		return nil, false, err
	}
	// r' uniform in [0, |r|), carrying the flip's sign; its encryption is
	// fresh, so S2 cannot correlate the result with earlier ciphertexts.
	rp, err := zmath.RandInt(rand.Reader, r)
	if err != nil {
		return nil, false, err
	}
	if flip {
		rp.Neg(rp)
	}
	rct, err := enc.Encrypt(rp)
	if err != nil {
		return nil, false, err
	}
	if masked, err = pk.Add(masked, rct); err != nil {
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
