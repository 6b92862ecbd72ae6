package zmath

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func TestRandIntRange(t *testing.T) {
	n := big.NewInt(1000)
	for i := 0; i < 200; i++ {
		r, err := RandInt(rand.Reader, n)
		if err != nil {
			t.Fatalf("RandInt: %v", err)
		}
		if r.Sign() < 0 || r.Cmp(n) >= 0 {
			t.Fatalf("RandInt out of range: %v", r)
		}
	}
}

func TestRandIntRejectsNonPositive(t *testing.T) {
	if _, err := RandInt(rand.Reader, big.NewInt(0)); err == nil {
		t.Fatal("expected error for zero bound")
	}
	if _, err := RandInt(rand.Reader, big.NewInt(-5)); err == nil {
		t.Fatal("expected error for negative bound")
	}
}

func TestRandRange(t *testing.T) {
	lo, hi := big.NewInt(50), big.NewInt(60)
	seen := map[int64]bool{}
	for i := 0; i < 500; i++ {
		r, err := RandRange(rand.Reader, lo, hi)
		if err != nil {
			t.Fatalf("RandRange: %v", err)
		}
		if r.Cmp(lo) < 0 || r.Cmp(hi) >= 0 {
			t.Fatalf("RandRange out of range: %v", r)
		}
		seen[r.Int64()] = true
	}
	if len(seen) != 10 {
		t.Fatalf("expected all 10 values to appear, saw %d", len(seen))
	}
	if _, err := RandRange(rand.Reader, hi, lo); err == nil {
		t.Fatal("expected error for empty range")
	}
}

func TestRandUnit(t *testing.T) {
	n := big.NewInt(35) // 5 * 7
	gcd := new(big.Int)
	for i := 0; i < 100; i++ {
		r, err := RandUnit(rand.Reader, n)
		if err != nil {
			t.Fatalf("RandUnit: %v", err)
		}
		if gcd.GCD(nil, nil, r, n); gcd.Cmp(One) != 0 {
			t.Fatalf("RandUnit returned non-unit %v mod %v", r, n)
		}
	}
}

func TestModInverse(t *testing.T) {
	n := big.NewInt(101)
	for a := int64(1); a < 101; a++ {
		inv, err := ModInverse(big.NewInt(a), n)
		if err != nil {
			t.Fatalf("ModInverse(%d): %v", a, err)
		}
		prod := new(big.Int).Mul(inv, big.NewInt(a))
		prod.Mod(prod, n)
		if prod.Cmp(One) != 0 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
	if _, err := ModInverse(big.NewInt(10), big.NewInt(20)); err != ErrNotInvertible {
		t.Fatalf("expected ErrNotInvertible, got %v", err)
	}
}

func TestSigned(t *testing.T) {
	n := big.NewInt(101)
	cases := []struct{ in, want int64 }{
		{0, 0}, {1, 1}, {50, 50}, {51, -50}, {100, -1}, {99, -2},
	}
	for _, c := range cases {
		got := Signed(big.NewInt(c.in), n)
		if got.Int64() != c.want {
			t.Errorf("Signed(%d, 101) = %v, want %d", c.in, got, c.want)
		}
	}
}

func TestSignedRoundTrip(t *testing.T) {
	n := big.NewInt(1 << 40)
	f := func(v int32) bool {
		x := big.NewInt(int64(v))
		residue := new(big.Int).Mod(x, n)
		return Signed(residue, n).Int64() == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsNegative(t *testing.T) {
	n := big.NewInt(1001)
	if IsNegative(big.NewInt(3), n) {
		t.Error("3 should not be negative")
	}
	if !IsNegative(big.NewInt(1000), n) {
		t.Error("n-1 should be negative (-1)")
	}
}

func TestLcm(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{4, 6, 12}, {5, 7, 35}, {12, 18, 36}, {1, 9, 9},
	}
	for _, c := range cases {
		got := Lcm(big.NewInt(c.a), big.NewInt(c.b))
		if got.Int64() != c.want {
			t.Errorf("Lcm(%d,%d) = %v, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCRTPair(t *testing.T) {
	p, q := big.NewInt(11), big.NewInt(13)
	pInv := new(big.Int).ModInverse(p, q)
	for x := int64(0); x < 143; x++ {
		a := big.NewInt(x % 11)
		b := big.NewInt(x % 13)
		got := CRTPair(a, b, p, q, pInv)
		if got.Int64() != x {
			t.Fatalf("CRTPair failed for x=%d: got %v", x, got)
		}
	}
}

func TestFactorial(t *testing.T) {
	want := []int64{1, 1, 2, 6, 24, 120, 720}
	for k, w := range want {
		if got := Factorial(k); got.Int64() != w {
			t.Errorf("Factorial(%d) = %v, want %d", k, got, w)
		}
	}
}

func TestBatchModInverse(t *testing.T) {
	n := big.NewInt(10007) // prime
	xs := []*big.Int{
		big.NewInt(1), big.NewInt(2), big.NewInt(9999), big.NewInt(123),
		big.NewInt(10006), big.NewInt(5000), big.NewInt(7),
	}
	invs, err := BatchModInverse(xs, n)
	if err != nil {
		t.Fatalf("BatchModInverse: %v", err)
	}
	if len(invs) != len(xs) {
		t.Fatalf("got %d inverses for %d inputs", len(invs), len(xs))
	}
	for i, x := range xs {
		want, err := ModInverse(x, n)
		if err != nil {
			t.Fatalf("ModInverse(%v): %v", x, err)
		}
		if invs[i].Cmp(want) != 0 {
			t.Errorf("inverse %d: got %v want %v", i, invs[i], want)
		}
	}
}

func TestBatchModInverseLarge(t *testing.T) {
	n, _ := new(big.Int).SetString("fffffffffffffffffffffffffffffffeffffffffffffffff", 16)
	xs := make([]*big.Int, 50)
	for i := range xs {
		r, err := RandUnit(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		xs[i] = r
	}
	invs, err := BatchModInverse(xs, n)
	if err != nil {
		t.Fatalf("BatchModInverse: %v", err)
	}
	prod := new(big.Int)
	for i := range xs {
		prod.Mul(xs[i], invs[i])
		prod.Mod(prod, n)
		if prod.Cmp(One) != 0 {
			t.Fatalf("x * x^-1 != 1 at %d", i)
		}
	}
}

func TestBatchModInverseErrors(t *testing.T) {
	n := big.NewInt(20)
	if _, err := BatchModInverse([]*big.Int{big.NewInt(3), big.NewInt(10)}, n); err != ErrNotInvertible {
		t.Fatalf("expected ErrNotInvertible, got %v", err)
	}
	out, err := BatchModInverse(nil, n)
	if err != nil || out != nil {
		t.Fatalf("empty input should be a no-op, got %v, %v", out, err)
	}
}
