package zmath

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// testModulusBits spans both kernel regimes: <= ciosMaxLimbs*64 exercises
// the fused CIOS path, the larger sizes the hybrid/Barrett path. The odd
// sizes check non-limb-aligned widths.
var testModulusBits = []int{64, 100, 512, 768, 1024, 2048, 3072}

func randOddModulus(t *testing.T, bits int) *big.Int {
	t.Helper()
	n, err := rand.Int(rand.Reader, new(big.Int).Lsh(One, uint(bits)))
	if err != nil {
		t.Fatal(err)
	}
	n.SetBit(n, bits-1, 1) // full width
	n.SetBit(n, 0, 1)      // odd
	return n
}

// onBothPaths runs f on the limb-kernel Modulus for n and on the big.Int
// fallback a non-64-bit platform gets. Every caller also checks against
// math/big directly, so the two paths are pinned bit-identical here, where
// the choice between them is made.
func onBothPaths(t *testing.T, n *big.Int, f func(t *testing.T, m *Modulus)) {
	t.Helper()
	m, err := NewModulus(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("kernels", func(t *testing.T) { f(t, m) })
	t.Run("fallback", func(t *testing.T) { f(t, &Modulus{n: n, fallback: true}) })
}

func TestNewModulusRejections(t *testing.T) {
	for _, bad := range []*big.Int{nil, big.NewInt(-5), big.NewInt(0), big.NewInt(1), big.NewInt(10), big.NewInt(1 << 20)} {
		if _, err := NewModulus(bad); err == nil {
			t.Errorf("NewModulus(%v): want error for even or out-of-range modulus", bad)
		}
	}
	if _, err := NewModulus(big.NewInt(3)); err != nil {
		t.Errorf("NewModulus(3): %v", err)
	}
}

func TestMulModMatchesBigInt(t *testing.T) {
	for _, bits := range testModulusBits {
		n := randOddModulus(t, bits)
		onBothPaths(t, n, func(t *testing.T, m *Modulus) {
			nm1 := new(big.Int).Sub(n, One)
			above := new(big.Int).Mul(n, big.NewInt(7)) // a >= N
			above.Add(above, big.NewInt(3))
			neg := new(big.Int).Neg(nm1)
			cases := []*big.Int{Zero, One, nm1, above, neg, nil, nil, nil}
			for i := 5; i < len(cases); i++ {
				r, err := rand.Int(rand.Reader, n)
				if err != nil {
					t.Fatal(err)
				}
				cases[i] = r
			}
			for _, a := range cases {
				for _, b := range cases {
					got := m.MulMod(a, b)
					want := new(big.Int).Mul(a, b)
					want.Mod(want, n)
					if got.Cmp(want) != 0 {
						t.Fatalf("bits=%d MulMod(%v, %v) = %v, want %v", bits, a, b, got, want)
					}
				}
			}
		})
	}
}

func TestExpModMatchesBigInt(t *testing.T) {
	for _, bits := range []int{512, 1024} {
		n := randOddModulus(t, bits)
		m, err := NewModulus(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			a, _ := rand.Int(rand.Reader, n)
			e, _ := rand.Int(rand.Reader, n)
			got := m.ExpMod(a, e)
			want := new(big.Int).Exp(a, e, n)
			if got.Cmp(want) != 0 {
				t.Fatalf("bits=%d ExpMod mismatch", bits)
			}
		}
	}
}

func TestProdModMatchesBigInt(t *testing.T) {
	for _, bits := range []int{256, 1024, 2048} {
		n := randOddModulus(t, bits)
		onBothPaths(t, n, func(t *testing.T, m *Modulus) {
			for _, size := range []int{0, 1, 2, 17} {
				xs := make([]*big.Int, size)
				want := new(big.Int).Mod(One, n)
				for i := range xs {
					x, _ := rand.Int(rand.Reader, n)
					xs[i] = x
					want.Mul(want, x)
					want.Mod(want, n)
				}
				if got := m.ProdMod(xs); got.Cmp(want) != 0 {
					t.Fatalf("bits=%d size=%d ProdMod mismatch", bits, size)
				}
			}
		})
	}
}

func TestMultiExpModMatchesBigInt(t *testing.T) {
	for _, bits := range []int{256, 1024, 2048} {
		n := randOddModulus(t, bits)
		onBothPaths(t, n, func(t *testing.T, m *Modulus) {
			for _, cfg := range []struct{ count, expBits int }{
				{1, 8}, {2, 32}, {4, 256}, {3, bits},
			} {
				bases := make([]*big.Int, cfg.count)
				exps := make([]*big.Int, cfg.count)
				want := new(big.Int).Mod(One, n)
				tmp := new(big.Int)
				for i := range bases {
					b, _ := rand.Int(rand.Reader, n)
					e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(One, uint(cfg.expBits)))
					bases[i], exps[i] = b, e
					tmp.Exp(b, e, n)
					want.Mul(want, tmp)
					want.Mod(want, n)
				}
				got, err := m.MultiExpMod(bases, exps)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("bits=%d count=%d expBits=%d MultiExpMod mismatch", bits, cfg.count, cfg.expBits)
				}
			}
			// Zero exponents and the empty product are 1 mod n.
			got, err := m.MultiExpMod([]*big.Int{big.NewInt(5)}, []*big.Int{Zero})
			if err != nil || got.Cmp(One) != 0 {
				t.Fatalf("MultiExpMod zero exponent = %v, %v", got, err)
			}
			if got, err = m.MultiExpMod(nil, nil); err != nil || got.Cmp(One) != 0 {
				t.Fatalf("MultiExpMod empty = %v, %v", got, err)
			}
			if _, err := m.MultiExpMod([]*big.Int{One}, []*big.Int{big.NewInt(-1)}); err == nil {
				t.Fatal("MultiExpMod accepted a negative exponent")
			}
			if _, err := m.MultiExpMod([]*big.Int{One}, nil); err == nil {
				t.Fatal("MultiExpMod accepted mismatched lengths")
			}
		})
	}
}

// TestExpModSharedMatchesBigInt holds ExpModShared to big.Int.Exp at 4, 8
// and 12 limbs (the CIOS kernel) and 24 and 48 (the hybrid), for groups of
// 1-8 exponents of unequal lengths with 0 and 1 among them and a base at
// or above n. On the kernel path the shared chain itself runs at every
// group size, including those below the cutoff ExpModShared routes to
// big.Int.Exp.
func TestExpModSharedMatchesBigInt(t *testing.T) {
	for _, bits := range []int{256, 512, 768, 1536, 3072} {
		n := randOddModulus(t, bits)
		// Selections raise to N^2-wide exponents over N^3: two thirds of n.
		expBits := 2 * bits / 3
		onBothPaths(t, n, func(t *testing.T, m *Modulus) {
			for size := 1; size <= 8; size++ {
				base, _ := rand.Int(rand.Reader, n)
				if size == 3 {
					base.Add(base, new(big.Int).Mul(n, big.NewInt(5))) // base >= n
				}
				exps := make([]*big.Int, size)
				for i := range exps {
					exps[i], _ = rand.Int(rand.Reader, new(big.Int).Lsh(One, uint(expBits*(i+1)/size)))
				}
				exps[0] = big.NewInt(int64(size % 2)) // 0 or 1
				want := make([]*big.Int, size)
				for i, e := range exps {
					want[i] = new(big.Int).Exp(base, e, n)
				}
				check := func(what string, got []*big.Int) {
					t.Helper()
					if len(got) != size {
						t.Fatalf("bits=%d size=%d %s: %d results", bits, size, what, len(got))
					}
					for i := range want {
						if got[i].Cmp(want[i]) != 0 {
							t.Fatalf("bits=%d size=%d %s: exponent %d (%d bits) mismatch", bits, size, what, i, exps[i].BitLen())
						}
					}
				}
				got, err := m.ExpModShared(base, exps)
				if err != nil {
					t.Fatal(err)
				}
				check("ExpModShared", got)
				if m.active() {
					check("shared chain", m.expShared(base, exps))
				}
			}
			if got, err := m.ExpModShared(big.NewInt(5), nil); err != nil || len(got) != 0 {
				t.Fatalf("ExpModShared with no exponents = %v, %v", got, err)
			}
			if _, err := m.ExpModShared(One, []*big.Int{One, One, big.NewInt(-1)}); err == nil {
				t.Fatal("ExpModShared accepted a negative exponent")
			}
			if _, err := m.ExpModShared(One, []*big.Int{One, nil, One}); err == nil {
				t.Fatal("ExpModShared accepted a nil exponent")
			}
		})
	}
}

func TestBatchModInverseMod(t *testing.T) {
	n := randOddModulus(t, 1024)
	onBothPaths(t, n, func(t *testing.T, m *Modulus) {
		xs := make([]*big.Int, 33)
		for i := range xs {
			u, err := RandUnit(rand.Reader, n)
			if err != nil {
				t.Fatal(err)
			}
			xs[i] = u
		}
		invs, err := BatchModInverseMod(xs, m)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := BatchModInverse(xs, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if invs[i].Cmp(ref[i]) != 0 {
				t.Fatalf("BatchModInverseMod[%d] diverges from BatchModInverse", i)
			}
			prod := new(big.Int).Mul(xs[i], invs[i])
			if prod.Mod(prod, n); prod.Cmp(One) != 0 {
				t.Fatalf("BatchModInverseMod[%d] is not an inverse", i)
			}
		}
		if out, err := BatchModInverseMod(nil, m); err != nil || out != nil {
			t.Fatalf("BatchModInverseMod(empty) = %v, %v", out, err)
		}
		if _, err := BatchModInverseMod([]*big.Int{Zero}, m); err == nil {
			t.Fatal("BatchModInverseMod inverted a non-unit")
		}
	})
}

func TestFixedBaseTableModMatchesPlain(t *testing.T) {
	n := randOddModulus(t, 1024)
	n2 := new(big.Int).Mul(n, n)
	base, _ := rand.Int(rand.Reader, n2)
	plain, err := NewFixedBaseTable(base, n2, 6, 256)
	if err != nil {
		t.Fatal(err)
	}
	exps := []*big.Int{Zero, One, new(big.Int).Sub(new(big.Int).Lsh(One, 256), One)}
	for i := 0; i < 8; i++ {
		e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(One, 256))
		exps = append(exps, e)
	}
	onBothPaths(t, n2, func(t *testing.T, m *Modulus) {
		mont, err := NewFixedBaseTableMod(base, m, 6, 256)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range exps {
			want, err := plain.Exp(e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := mont.Exp(e)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("FixedBaseTableMod.Exp(%v) = %v, want %v", e, got, want)
			}
		}
	})
	if _, err := NewFixedBaseTableMod(base, nil, 6, 256); err == nil {
		t.Fatal("NewFixedBaseTableMod accepted a nil engine")
	}
}
