// Package zmath provides small number-theoretic helpers shared by the
// Paillier and Damgård-Jurik implementations and by the two-party
// protocols: uniform sampling in Z_N and Z*_N, the signed interpretation
// of residues used for encrypted comparisons, and checked modular inverses.
package zmath

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common small constants. Callers must treat these as read-only.
var (
	Zero = big.NewInt(0)
	One  = big.NewInt(1)
	Two  = big.NewInt(2)
)

// ErrNotInvertible is returned when a modular inverse does not exist.
var ErrNotInvertible = errors.New("zmath: element is not invertible")

// RandInt returns a uniform random integer in [0, n).
func RandInt(rnd io.Reader, n *big.Int) (*big.Int, error) {
	if n.Sign() <= 0 {
		return nil, fmt.Errorf("zmath: RandInt bound must be positive, got %v", n)
	}
	return rand.Int(rnd, n)
}

// RandRange returns a uniform random integer in [lo, hi).
func RandRange(rnd io.Reader, lo, hi *big.Int) (*big.Int, error) {
	if lo.Cmp(hi) >= 0 {
		return nil, fmt.Errorf("zmath: RandRange empty range [%v, %v)", lo, hi)
	}
	width := new(big.Int).Sub(hi, lo)
	r, err := rand.Int(rnd, width)
	if err != nil {
		return nil, err
	}
	return r.Add(r, lo), nil
}

// RandUnit returns a uniform random element of Z*_n (invertible mod n).
// For an RSA-style modulus n = pq with large primes, the expected number
// of retries is negligible.
func RandUnit(rnd io.Reader, n *big.Int) (*big.Int, error) {
	if n.Cmp(Two) < 0 {
		return nil, fmt.Errorf("zmath: RandUnit modulus must be >= 2, got %v", n)
	}
	gcd := new(big.Int)
	for i := 0; i < 128; i++ {
		r, err := rand.Int(rnd, n)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if gcd.GCD(nil, nil, r, n); gcd.Cmp(One) == 0 {
			return r, nil
		}
	}
	return nil, errors.New("zmath: RandUnit failed to find an invertible element")
}

// ModInverse returns a^{-1} mod n, or ErrNotInvertible when gcd(a, n) != 1.
func ModInverse(a, n *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(a, n)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	return inv, nil
}

// Signed maps a residue v in [0, n) to its signed representative in
// (-n/2, n/2]. This is the convention under which the dedup sentinel
// Z = n-1 reads as -1 and sinks below every non-negative score.
func Signed(v, n *big.Int) *big.Int {
	out := new(big.Int).Mod(v, n)
	half := new(big.Int).Rsh(n, 1)
	if out.Cmp(half) > 0 {
		out.Sub(out, n)
	}
	return out
}

// IsNegative reports whether the residue v in [0, n) represents a negative
// value under the signed interpretation.
func IsNegative(v, n *big.Int) bool {
	return Signed(v, n).Sign() < 0
}

// Lcm returns lcm(a, b).
func Lcm(a, b *big.Int) *big.Int {
	gcd := new(big.Int).GCD(nil, nil, a, b)
	out := new(big.Int).Div(a, gcd)
	return out.Mul(out, b)
}

// CRTPair combines residues (a mod p, b mod q) for coprime p, q into the
// unique residue mod p*q using precomputed pInvModQ = p^{-1} mod q.
func CRTPair(a, b, p, q, pInvModQ *big.Int) *big.Int {
	// x = a + p * ((b - a) * pInv mod q)
	t := new(big.Int).Sub(b, a)
	t.Mul(t, pInvModQ)
	t.Mod(t, q)
	t.Mul(t, p)
	return t.Add(t, a)
}

// Factorial returns k! as a big.Int. Used by the Damgård-Jurik plaintext
// extraction, where k stays tiny (k <= s).
func Factorial(k int) *big.Int {
	out := big.NewInt(1)
	for i := 2; i <= k; i++ {
		out.Mul(out, big.NewInt(int64(i)))
	}
	return out
}

// SampleSubgroupPower draws a uniform element of the image of the
// e-power map on Z*_m for a prime-power modulus m = prime^k: sample a
// uniform unit s (a non-unit appears only with probability 1/prime, so
// the retry loop is all but dead code) and return s^e mod m. The crypto
// layers use it to sample nonce powers directly from the N-th-residue
// subgroup's CRT components.
func SampleSubgroupPower(rnd io.Reader, m, prime, e *big.Int) (*big.Int, error) {
	for i := 0; i < 128; i++ {
		s, err := RandInt(rnd, m)
		if err != nil {
			return nil, err
		}
		if s.Sign() == 0 || new(big.Int).Mod(s, prime).Sign() == 0 {
			continue
		}
		return new(big.Int).Exp(s, e, m), nil
	}
	return nil, errors.New("zmath: subgroup sampling failed to find a unit")
}

// BatchModInverse computes xs[i]^{-1} mod n for every element with a
// single modular inversion plus 3(len-1) multiplications (Montgomery's
// batch-inversion trick): prefix products are accumulated forward, the
// running product is inverted once, and the individual inverses fall out
// walking backward. Inversions mod an RSA-sized modulus cost tens of
// multiplications, so for the per-ciphertext unblinding loops this is a
// large constant-factor win. Returns ErrNotInvertible if any element
// shares a factor with n (the error does not identify which, matching the
// all-or-nothing usage in the protocols).
func BatchModInverse(xs []*big.Int, n *big.Int) ([]*big.Int, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	// prefix[i] = xs[0] * ... * xs[i] mod n
	prefix := make([]*big.Int, len(xs))
	acc := new(big.Int).Mod(xs[0], n)
	prefix[0] = acc
	for i := 1; i < len(xs); i++ {
		acc = new(big.Int).Mul(acc, xs[i])
		acc.Mod(acc, n)
		prefix[i] = acc
	}
	inv := new(big.Int).ModInverse(prefix[len(xs)-1], n)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	out := make([]*big.Int, len(xs))
	for i := len(xs) - 1; i > 0; i-- {
		// inv currently holds (xs[0]*...*xs[i])^{-1}.
		out[i] = new(big.Int).Mul(inv, prefix[i-1])
		out[i].Mod(out[i], n)
		inv.Mul(inv, xs[i])
		inv.Mod(inv, n)
	}
	out[0] = inv
	return out, nil
}
