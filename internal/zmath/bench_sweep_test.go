package zmath

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

func BenchmarkMulModSweep(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048, 3072} {
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

func BenchmarkMultiExpSweep(b *testing.B) {
	for _, bits := range []int{2048, 3072} {
		n := randOddModulusB(bits)
		m, _ := NewModulus(n)
		const cnt = 4
		bases := make([]*big.Int, cnt)
		exps := make([]*big.Int, cnt)
		for i := range bases {
			bases[i], _ = rand.Int(rand.Reader, n)
			exps[i], _ = rand.Int(rand.Reader, new(big.Int).Lsh(One, 1024))
		}
		b.Run(fmt.Sprintf("big/%d", bits), func(b *testing.B) {
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
		b.Run(fmt.Sprintf("mont/%d", bits), func(b *testing.B) {
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
// "shared" runs the chain at every size, below the cutoff too; the
// smallest size at which it wins at every key size is sharedExpMinGroup.
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
			b.Run(fmt.Sprintf("key=%d/g=%d/big", keyBits, g), func(b *testing.B) {
				z := new(big.Int)
				for i := 0; i < b.N; i++ {
					for _, e := range group {
						z.Exp(base, e, n)
					}
				}
			})
			b.Run(fmt.Sprintf("key=%d/g=%d/shared", keyBits, g), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.expShared(base, group)
				}
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

func BenchmarkProdModSweep(b *testing.B) {
	for _, bits := range []int{512, 1024, 2048} {
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

func BenchmarkChainStrategy(b *testing.B) {
	for _, bits := range []int{512, 1024, 1536, 2048, 3072} {
		n := randOddModulusB(bits)
		m, _ := NewModulus(n)
		const cnt = 64
		xs := make([]*big.Int, cnt)
		for i := range xs {
			xs[i], _ = rand.Int(rand.Reader, n)
		}
		b.Run(fmt.Sprintf("kernelchain/%d", bits), func(b *testing.B) {
			s := m.pool.Get().(*montScratch)
			defer m.pool.Put(s)
			for i := 0; i < b.N; i++ {
				natFromBig(s.x, xs[0])
				for _, x := range xs[1:] {
					natFromBig(s.y, x)
					m.montMul(s.x, s.x, s.y, s)
				}
			}
		})
		b.Run(fmt.Sprintf("barrettchain/%d", bits), func(b *testing.B) {
			s := m.pool.Get().(*montScratch)
			defer m.pool.Put(s)
			save := m.useCios
			m.useCios = false
			acc := new(big.Int)
			for i := 0; i < b.N; i++ {
				acc.Set(xs[0])
				for _, x := range xs[1:] {
					m.mulModInto(acc, acc, x, s)
				}
			}
			m.useCios = save
		})
	}
}
