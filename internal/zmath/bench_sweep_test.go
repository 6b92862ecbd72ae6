package zmath

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sort"
	"testing"
	"time"
)

// sweepBits are the widths the kernel sweeps run at: 4 to 64 limbs, which
// covers N, N^2 and N^3 of 256- to 1024-bit keys and N^2 of 2048-bit keys
// (DESIGN.md "Montgomery engine").
var sweepBits = []int{256, 512, 768, 1024, 1536, 2048, 3072, 4096}

// BenchmarkMulModSweep sets one-shot MulMod (two kernel calls) against
// big.Int Mul+Mod.
func BenchmarkMulModSweep(b *testing.B) {
	for _, bits := range sweepBits {
		n := randOddModulusB(bits)
		m, _ := NewModulus(n)
		x, _ := rand.Int(rand.Reader, n)
		y, _ := rand.Int(rand.Reader, n)
		b.Run(fmt.Sprintf("big/%d", bits), func(b *testing.B) {
			z := new(big.Int)
			for i := 0; i < b.N; i++ {
				z.Mul(x, y)
				z.Mod(z, n)
			}
		})
		b.Run(fmt.Sprintf("mont/%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulMod(x, y)
			}
		})
	}
}

// BenchmarkProdModSweep sets ProdMod's drift chain over 64 elements against
// a big.Int Mul+Mod loop.
func BenchmarkProdModSweep(b *testing.B) {
	for _, bits := range sweepBits {
		n := randOddModulusB(bits)
		m, _ := NewModulus(n)
		const cnt = 64
		xs := make([]*big.Int, cnt)
		for i := range xs {
			xs[i], _ = rand.Int(rand.Reader, n)
		}
		b.Run(fmt.Sprintf("big/%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc := new(big.Int).Set(xs[0])
				for _, x := range xs[1:] {
					acc.Mul(acc, x)
					acc.Mod(acc, n)
				}
			}
		})
		b.Run(fmt.Sprintf("mont/%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.ProdMod(xs)
			}
		})
	}
}

// BenchmarkLadderSweep sets a fixed-window ladder on the engine
// (MultiExpMod with one base) against big.Int.Exp, with exponents two
// thirds of the modulus wide (an N^2-wide exponent over N^3): the
// measurement behind ExpMod delegating to big.Int.Exp.
func BenchmarkLadderSweep(b *testing.B) {
	for _, bits := range sweepBits {
		n := randOddModulusB(bits)
		m, _ := NewModulus(n)
		x, _ := rand.Int(rand.Reader, n)
		e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(One, uint(2*bits/3)))
		b.Run(fmt.Sprintf("big/%d", bits), func(b *testing.B) {
			z := new(big.Int)
			for i := 0; i < b.N; i++ {
				z.Exp(x, e, n)
			}
		})
		b.Run(fmt.Sprintf("mont/%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MultiExpMod([]*big.Int{x}, []*big.Int{e})
			}
		})
	}
}

// BenchmarkMultiExpSweep sets Straus's shared ladder against one
// big.Int.Exp per base: 3 bases with 256-bit exponents at 4 and 8 limbs
// (the EHL subtraction's shape at the benchmark's key), 4 bases with
// 1024-bit exponents at 32 and 48.
func BenchmarkMultiExpSweep(b *testing.B) {
	for _, c := range []struct{ bits, cnt, expBits int }{
		{256, 3, 256}, {512, 3, 256}, {2048, 4, 1024}, {3072, 4, 1024},
	} {
		n := randOddModulusB(c.bits)
		m, _ := NewModulus(n)
		bases := make([]*big.Int, c.cnt)
		exps := make([]*big.Int, c.cnt)
		for i := range bases {
			bases[i], _ = rand.Int(rand.Reader, n)
			exps[i], _ = rand.Int(rand.Reader, new(big.Int).Lsh(One, uint(c.expBits)))
		}
		b.Run(fmt.Sprintf("big/%d", c.bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acc := new(big.Int).SetInt64(1)
				t := new(big.Int)
				for j := range bases {
					t.Exp(bases[j], exps[j], n)
					acc.Mul(acc, t)
					acc.Mod(acc, n)
				}
			}
		})
		b.Run(fmt.Sprintf("mont/%d", c.bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MultiExpMod(bases, exps)
			}
		})
	}
}

// BenchmarkExpModShared sets the shared squaring chain against one
// big.Int.Exp per exponent in the selection gadget's shape: the N^3
// modulus of a 256- to 2048-bit key, 2N-bit exponents (a first-layer
// ciphertext times the blind, mod N^2), groups of 1-5 powers of one base.
// Every iteration times both on the group back to back, in alternating
// order, so a slow phase of a shared machine slows both sides of a pair;
// chain/big is the median of the per-iteration ratios. The chain runs at
// every size, below the cutoff too; the smallest size at which chain/big
// is below 1 at every key size is sharedExpMinGroup.
func BenchmarkExpModShared(b *testing.B) {
	for _, keyBits := range []int{256, 512, 1024, 2048} {
		n := randOddModulusB(3 * keyBits)
		m, _ := NewModulus(n)
		base, _ := rand.Int(rand.Reader, n)
		exps := make([]*big.Int, 5)
		for i := range exps {
			exps[i], _ = rand.Int(rand.Reader, new(big.Int).Lsh(One, uint(2*keyBits)))
		}
		for g := 1; g <= len(exps); g++ {
			group := exps[:g]
			b.Run(fmt.Sprintf("key=%d/g=%d", keyBits, g), func(b *testing.B) {
				z := new(big.Int)
				powers := func() {
					for _, e := range group {
						z.Exp(base, e, n)
					}
				}
				chain := func() { m.expShared(base, group) }
				var tBig, tChain time.Duration
				ratios := make([]float64, b.N)
				for i := range ratios {
					first, second := powers, chain
					if i%2 == 1 {
						first, second = chain, powers
					}
					t0 := time.Now()
					first()
					t1 := time.Now()
					second()
					dBig, dChain := t1.Sub(t0), time.Since(t1)
					if i%2 == 1 {
						dBig, dChain = dChain, dBig
					}
					tBig += dBig
					tChain += dChain
					ratios[i] = float64(dChain) / float64(dBig)
				}
				sort.Float64s(ratios)
				b.ReportMetric(float64(tBig.Microseconds())/float64(b.N), "big-us/op")
				b.ReportMetric(float64(tChain.Microseconds())/float64(b.N), "chain-us/op")
				b.ReportMetric(ratios[len(ratios)/2], "chain/big")
			})
		}
	}
}

func randOddModulusB(bits int) *big.Int {
	n, _ := rand.Int(rand.Reader, new(big.Int).Lsh(One, uint(bits)))
	n.SetBit(n, bits-1, 1)
	n.SetBit(n, 0, 1)
	return n
}

// BenchmarkNonceBaseSweep sets the nonce producers side by side per nonce
// at 256-, 1024- and 2048-bit moduli: the spec power, the CRT sampler and
// the fixed-base table at windows 4 to 8, with each table's build time
// (build/...) and size (table-KiB). nonceWindow is read off this sweep.
// Run at -cpu 1: go test -run '^$' -bench NonceBaseSweep -benchtime 2s
// -cpu 1 ./internal/zmath (about two minutes).
func BenchmarkNonceBaseSweep(b *testing.B) {
	for _, bits := range []int{256, 1024, 2048} {
		p, _ := rand.Prime(rand.Reader, bits/2)
		q, _ := rand.Prime(rand.Reader, bits-bits/2)
		n := new(big.Int).Mul(p, q)
		n2 := new(big.Int).Mul(n, n)
		m := MustModulus(n2)
		p2, q2 := new(big.Int).Mul(p, p), new(big.Int).Mul(q, q)
		inv, _ := ModInverse(p2, q2)
		crt := NewCRTNonce(p, q, inv, 1)
		b.Run(fmt.Sprintf("%d/spec", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SpecNoncePower(n, n, n2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%d/crt", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := crt.NoncePower(); err != nil {
					b.Fatal(err)
				}
			}
		})
		for w := 4; w <= 8; w++ {
			base := func() *NonceBase {
				nb, err := NewNonceBase(n, m)
				if err != nil {
					b.Fatal(err)
				}
				nb.w = w
				return nb
			}
			b.Run(fmt.Sprintf("%d/build/w=%d", bits, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					nb := base()
					nb.build()
					b.ReportMetric(float64(len(nb.table)*8)/1024, "table-KiB")
				}
			})
			nb := base()
			b.Run(fmt.Sprintf("%d/table/w=%d", bits, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := nb.NoncePower(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSafePrime times SafePrime per prime at the widths of 256-,
// 1024- and 2048-bit keys' factors (and 160 bits, the factors of a
// 256-bit key's ephemeral partner), beside crypto/rand.Prime. The 1024-bit
// row varies by seconds from prime to prime: run it with -benchtime 5x
// or more.
func BenchmarkSafePrime(b *testing.B) {
	for _, bits := range []int{128, 160, 512, 1024} {
		b.Run(fmt.Sprintf("safe/%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SafePrime(rand.Reader, bits); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rand.Prime/%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rand.Prime(rand.Reader, bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
