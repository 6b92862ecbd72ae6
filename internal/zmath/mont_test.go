package zmath

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
)

// testLimbs are the widths every operator is held to math/big at: 1-5
// limbs (the row loop's shortest rows), the N, N^2 and N^3 of 256- to
// 2048-bit keys (4, 8, 12, 16, 24, 32, 48, 64 and 96 limbs, DESIGN.md
// "Montgomery engine"), and 13, a width that is neither a power of two nor
// a key's.
var testLimbs = []int{1, 2, 3, 4, 5, 8, 12, 13, 16, 24, 32, 48, 64, 96}

// testModulus is one modulus of testModuli, named for failure messages.
type testModulus struct {
	n    *big.Int
	name string
}

// testModuli returns two odd moduli per width in testLimbs: one five bits
// short of the full width, and one whose top limb is all ones. With
// x = y = n-1 the second drives the row loop's final carry, and so the
// subtract after the loop (TestMontMulFinalCarry).
func testModuli(t *testing.T) []testModulus {
	t.Helper()
	var out []testModulus
	for _, k := range testLimbs {
		out = append(out,
			testModulus{randOddModulus(t, 64*k-5), fmt.Sprintf("k=%d short", k)},
			testModulus{topOnesModulus(t, k), fmt.Sprintf("k=%d top-ones", k)})
	}
	return out
}

// topOnesModulus returns a random odd k-limb modulus whose top limb is all
// ones.
func topOnesModulus(t *testing.T, k int) *big.Int {
	t.Helper()
	n := randOddModulus(t, 64*k)
	return n.Or(n, new(big.Int).Lsh(new(big.Int).SetUint64(^uint64(0)), uint(64*(k-1))))
}

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

// randBelow returns a uniform value in [0, 2^bits).
func randBelow(t *testing.T, bits int) *big.Int {
	t.Helper()
	v, err := rand.Int(rand.Reader, new(big.Int).Lsh(One, uint(bits)))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// onBothPaths runs f on the limb-kernel Modulus for n and on the big.Int
// fallback a non-64-bit platform or a math_big_pure_go build gets. Every
// caller also checks against math/big directly, so the two paths are
// pinned bit-identical here, where the choice between them is made.
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

// TestMontMulFinalCarry runs the kernel on x = y = n-1 over a top-ones
// modulus of every test width. There x*y + Q*n (Q the multiple of n that
// clears the low k limbs) reaches R^2, so the rows carry out of the window
// and the result needs the subtract after the loop.
func TestMontMulFinalCarry(t *testing.T) {
	for _, k := range testLimbs {
		n := topOnesModulus(t, k)
		m, err := NewModulus(n)
		if err != nil {
			t.Fatal(err)
		}
		if !m.active() {
			t.Skip("no kernel: a non-64-bit platform or a math_big_pure_go build")
		}
		r := new(big.Int).Lsh(One, uint(64*k))
		x := new(big.Int).Sub(n, One)
		xy := new(big.Int).Mul(x, x)
		// Q = -xy * n^{-1} mod R; the rows compute (xy + Q*n) / R.
		q := new(big.Int).ModInverse(n, r)
		q.Mul(q, xy).Neg(q).Mod(q, r)
		pre := new(big.Int).Mul(q, n)
		if pre.Add(pre, xy).Rsh(pre, uint(64*k)); pre.Cmp(r) < 0 {
			t.Fatalf("k=%d: (xy + Qn)/R stays below R; the carry is not exercised", k)
		}

		s := m.pool.Get().(*montScratch)
		xl := natFromBig(make([]big.Word, k), x)
		z := make([]big.Word, k)
		m.montMul(z, xl, xl, s)
		m.pool.Put(s)
		want := new(big.Int).ModInverse(r, n)
		want.Mul(want, xy).Mod(want, n)
		if got := natToBig(z); got.Cmp(want) != 0 {
			t.Fatalf("k=%d: montMul(n-1, n-1) = %v, want %v", k, got, want)
		}
	}
}

func TestMulModMatchesBigInt(t *testing.T) {
	for _, tm := range testModuli(t) {
		n := tm.n
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
						t.Fatalf("%s MulMod(%v, %v) = %v, want %v", tm.name, a, b, got, want)
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
	for _, tm := range testModuli(t) {
		n := tm.n
		onBothPaths(t, n, func(t *testing.T, m *Modulus) {
			nm1 := new(big.Int).Sub(n, One)
			for _, size := range []int{0, 1, 2, 17} {
				xs := make([]*big.Int, size)
				want := new(big.Int).Mod(One, n)
				for i := range xs {
					x, _ := rand.Int(rand.Reader, n)
					if i%2 == 1 {
						x = nm1
					}
					xs[i] = x
					want.Mul(want, x)
					want.Mod(want, n)
				}
				if got := m.ProdMod(xs); got.Cmp(want) != 0 {
					t.Fatalf("%s size=%d ProdMod mismatch", tm.name, size)
				}
			}
		})
	}
}

// maxTestExpBits caps the exponents the wide-modulus tests raise to, so
// the 96-limb rows cost a fraction of a second. It is the N^2 width of the
// paper's 512-bit keys, the exponent a selection raises to over N^3 (24
// limbs), and wide enough that ExpModShared's digit width reaches 6 there.
const maxTestExpBits = 1024

func TestMultiExpModMatchesBigInt(t *testing.T) {
	for _, tm := range testModuli(t) {
		n := tm.n
		bits := min(n.BitLen(), maxTestExpBits)
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
					e := randBelow(t, cfg.expBits)
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
					t.Fatalf("%s count=%d expBits=%d MultiExpMod mismatch", tm.name, cfg.count, cfg.expBits)
				}
			}
			// Zero exponents and the empty product are 1 mod n.
			got, err := m.MultiExpMod([]*big.Int{big.NewInt(5)}, []*big.Int{Zero})
			if err != nil || got.Cmp(new(big.Int).Mod(One, n)) != 0 {
				t.Fatalf("MultiExpMod zero exponent = %v, %v", got, err)
			}
			if got, err = m.MultiExpMod(nil, nil); err != nil || got.Cmp(new(big.Int).Mod(One, n)) != 0 {
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

// TestExpModSharedMatchesBigInt holds ExpModShared to big.Int.Exp at every
// test width, for groups of 1-8 exponents of unequal lengths with 0 and 1
// among them and a base at or above n. On the kernel path the shared chain
// itself runs at every group size, including those below the cutoff
// ExpModShared routes to big.Int.Exp. The longest exponent of a group is
// exactly expBits long, so the group runs at digit width yaoWindow(expBits).
func TestExpModSharedMatchesBigInt(t *testing.T) {
	widest := uint(0)
	for _, tm := range testModuli(t) {
		n := tm.n
		// Selections raise to N^2-wide exponents over N^3: two thirds of n.
		expBits := min(2*n.BitLen()/3, maxTestExpBits)
		widest = max(widest, yaoWindow(expBits))
		onBothPaths(t, n, func(t *testing.T, m *Modulus) {
			for size := 1; size <= 8; size++ {
				base, _ := rand.Int(rand.Reader, n)
				if size == 3 {
					base.Add(base, new(big.Int).Mul(n, big.NewInt(5))) // base >= n
				}
				exps := make([]*big.Int, size)
				for i := range exps {
					exps[i] = randBelow(t, expBits*(i+1)/size)
				}
				exps[size-1].SetBit(exps[size-1], expBits-1, 1)
				exps[0] = big.NewInt(int64(size % 2)) // 0 or 1
				want := make([]*big.Int, size)
				for i, e := range exps {
					want[i] = new(big.Int).Exp(base, e, n)
				}
				check := func(what string, got []*big.Int) {
					t.Helper()
					if len(got) != size {
						t.Fatalf("%s size=%d %s: %d results", tm.name, size, what, len(got))
					}
					for i := range want {
						if got[i].Cmp(want[i]) != 0 {
							t.Fatalf("%s size=%d %s: exponent %d (%d bits) mismatch", tm.name, size, what, i, exps[i].BitLen())
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
	// Selections at the paper's 512-bit keys raise 1024-bit exponents, for
	// which the chain reads 6-bit digits.
	if widest < 6 {
		t.Fatalf("widest digit width exercised is %d, want 6 (the paper's keys)", widest)
	}
}

func TestBatchModInverseMod(t *testing.T) {
	for _, tm := range testModuli(t) {
		n := tm.n
		onBothPaths(t, n, func(t *testing.T, m *Modulus) {
			xs := []*big.Int{new(big.Int).Sub(n, One)}
			for len(xs) < 33 {
				u, err := RandUnit(rand.Reader, n)
				if err != nil {
					t.Fatal(err)
				}
				xs = append(xs, u)
			}
			invs, err := BatchModInverseMod(xs, m)
			if err != nil {
				t.Fatal(err)
			}
			for i := range xs {
				want := new(big.Int).ModInverse(xs[i], n)
				if invs[i].Cmp(want) != 0 {
					t.Fatalf("%s BatchModInverseMod[%d] = %v, want %v", tm.name, i, invs[i], want)
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
}
