package zmath

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// safePrimeSieveCount is how many odd primes the safe-prime sieve strikes
// with, and safePrimeSpan how many candidates one random start covers.
const (
	safePrimeSieveCount = 2000
	safePrimeSpan       = 1 << 15
)

var sieveOnce struct {
	sync.Once
	primes []int
}

// sievePrimes returns the first safePrimeSieveCount odd primes.
func sievePrimes() []int {
	sieveOnce.Do(func() {
		const limit = 17400 // above the 2001st prime, 17393
		composite := make([]bool, limit)
		for i := 3; len(sieveOnce.primes) < safePrimeSieveCount; i += 2 {
			if composite[i] {
				continue
			}
			sieveOnce.primes = append(sieveOnce.primes, i)
			for j := i * i; j < limit; j += 2 * i {
				composite[j] = true
			}
		}
	})
	return sieveOnce.primes
}

// SafePrime returns a safe prime p = 2p'+1 (p' prime too) of exactly bits
// bits, with its top two bits set as crypto/rand.Prime sets them, so the
// product of two has full width. From a random odd start p' it sieves a
// span of candidates p' + 2j for small factors of both p' and 2p'+1, runs
// a base-2 Fermat test on 2p'+1 for each survivor, and only then the full
// ProbablyPrime tests on p' and p.
func SafePrime(rnd io.Reader, bits int) (*big.Int, error) {
	if bits < 8 {
		return nil, fmt.Errorf("zmath: safe prime of %d bits is too small", bits)
	}
	qBits := bits - 1
	buf := make([]byte, (qBits+7)/8)
	struck := make([]bool, safePrimeSpan)
	q0, q, p, pm1, r, sBig := new(big.Int), new(big.Int), new(big.Int), new(big.Int), new(big.Int), new(big.Int)
	for {
		if _, err := io.ReadFull(rnd, buf); err != nil {
			return nil, fmt.Errorf("zmath: drawing a safe-prime candidate: %w", err)
		}
		buf[0] &= 0xff >> (8*len(buf) - qBits)
		q0.SetBytes(buf)
		q0.SetBit(q0, qBits-1, 1).SetBit(q0, qBits-2, 1).SetBit(q0, 0, 1)

		clear(struck)
		for _, s := range sievePrimes() {
			if s >= 1<<min(qBits-2, 30) { // q0 and every candidate exceed s: striking s itself is impossible
				break
			}
			rm := int(r.Mod(q0, sBig.SetInt64(int64(s))).Int64())
			inv2 := (s + 1) / 2
			inv4 := inv2 * inv2 % s
			// q0 + 2j ≡ 0 (mod s) and 2(q0 + 2j) + 1 ≡ 0 (mod s).
			for j := (s - rm) % s * inv2 % s; j < safePrimeSpan; j += s {
				struck[j] = true
			}
			for j := (2*s - (2*rm+1)%s) % s * inv4 % s; j < safePrimeSpan; j += s {
				struck[j] = true
			}
		}
		for j := 0; j < safePrimeSpan; j++ {
			if struck[j] {
				continue
			}
			q.Add(q0, sBig.SetInt64(int64(2*j)))
			if q.BitLen() != qBits {
				break
			}
			p.Lsh(q, 1).SetBit(p, 0, 1)
			if r.Exp(Two, pm1.Sub(p, One), p).Cmp(One) != 0 {
				continue
			}
			if q.ProbablyPrime(20) && p.ProbablyPrime(20) {
				return new(big.Int).Set(p), nil
			}
		}
	}
}

// CheckSafePrime reports why p is not a safe prime p = 2p'+1 with p' an
// odd prime (so p ≡ 3 mod 4), or nil if it is one.
func CheckSafePrime(p *big.Int) error {
	if p == nil || p.Cmp(big.NewInt(7)) < 0 || !p.ProbablyPrime(20) {
		return errors.New("zmath: not a prime of at least 7")
	}
	if !new(big.Int).Rsh(p, 1).ProbablyPrime(20) {
		return errors.New("zmath: prime p is not safe: (p-1)/2 is not prime")
	}
	return nil
}
