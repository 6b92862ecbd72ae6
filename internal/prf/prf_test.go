package prf

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

func TestNewKey(t *testing.T) {
	k1, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(k1) != KeySize || len(k2) != KeySize {
		t.Fatal("wrong key size")
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("two fresh keys are identical")
	}
}

func TestDeriveKeysDeterministicAndDistinct(t *testing.T) {
	master := Key(bytes.Repeat([]byte{7}, KeySize))
	a, err := DeriveKeys(master, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeriveKeys(master, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("derivation not deterministic at %d", i)
		}
		for j := i + 1; j < len(a); j++ {
			if bytes.Equal(a[i], a[j]) {
				t.Fatalf("subkeys %d and %d collide", i, j)
			}
		}
	}
	if _, err := DeriveKeys(nil, 3); err == nil {
		t.Fatal("expected error for empty master")
	}
	if _, err := DeriveKeys(master, 0); err == nil {
		t.Fatal("expected error for zero count")
	}
}

func TestEvalDeterministic(t *testing.T) {
	k := Key(bytes.Repeat([]byte{1}, KeySize))
	a := Eval(k, []byte("object-42"))
	b := Eval(k, []byte("object-42"))
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	c := Eval(k, []byte("object-43"))
	if bytes.Equal(a, c) {
		t.Fatal("distinct inputs collide")
	}
	k2 := Key(bytes.Repeat([]byte{2}, KeySize))
	d := Eval(k2, []byte("object-42"))
	if bytes.Equal(a, d) {
		t.Fatal("distinct keys collide")
	}
}

func TestToZnRange(t *testing.T) {
	k := Key(bytes.Repeat([]byte{3}, KeySize))
	n := big.NewInt(1_000_003)
	f := func(data []byte) bool {
		v, err := ToZn(k, data, n)
		if err != nil {
			return false
		}
		return v.Sign() >= 0 && v.Cmp(n) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ToZn(k, []byte("x"), big.NewInt(0)); err == nil {
		t.Fatal("expected error for zero modulus")
	}
}

func TestToZnDeterministic(t *testing.T) {
	k := Key(bytes.Repeat([]byte{4}, KeySize))
	n := new(big.Int).Lsh(big.NewInt(1), 256)
	a, _ := ToZn(k, []byte("o"), n)
	b, _ := ToZn(k, []byte("o"), n)
	if a.Cmp(b) != 0 {
		t.Fatal("ToZn not deterministic")
	}
}

func TestPermIsBijection(t *testing.T) {
	k := Key(bytes.Repeat([]byte{6}, KeySize))
	for _, n := range []int{1, 2, 7, 64, 500} {
		p, err := NewPerm(k, n)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			j, err := p.Apply(i)
			if err != nil {
				t.Fatal(err)
			}
			if j < 0 || j >= n || seen[j] {
				t.Fatalf("not a bijection at n=%d: i=%d -> %d", n, i, j)
			}
			seen[j] = true
			back, err := p.Invert(j)
			if err != nil {
				t.Fatal(err)
			}
			if back != i {
				t.Fatalf("inverse broken: %d -> %d -> %d", i, j, back)
			}
		}
	}
}

func TestPermDeterministicPerKey(t *testing.T) {
	k1 := Key(bytes.Repeat([]byte{8}, KeySize))
	k2 := Key(bytes.Repeat([]byte{9}, KeySize))
	a, _ := NewPerm(k1, 64)
	b, _ := NewPerm(k1, 64)
	c, _ := NewPerm(k2, 64)
	sameAsB, sameAsC := true, true
	for i := 0; i < 64; i++ {
		va, _ := a.Apply(i)
		vb, _ := b.Apply(i)
		vc, _ := c.Apply(i)
		if va != vb {
			sameAsB = false
		}
		if va != vc {
			sameAsC = false
		}
	}
	if !sameAsB {
		t.Fatal("same key gave different permutations")
	}
	if sameAsC {
		t.Fatal("different keys gave identical permutations (unlikely)")
	}
}

func TestPermValidation(t *testing.T) {
	k := Key(bytes.Repeat([]byte{1}, KeySize))
	if _, err := NewPerm(k, 0); err == nil {
		t.Fatal("expected error for empty domain")
	}
	if _, err := NewPerm(nil, 4); err == nil {
		t.Fatal("expected error for empty key")
	}
	p, _ := NewPerm(k, 4)
	if _, err := p.Apply(-1); err == nil {
		t.Fatal("expected error for negative index")
	}
	if _, err := p.Apply(4); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	if _, err := p.Invert(99); err == nil {
		t.Fatal("expected error for out-of-range inverse")
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4", p.Len())
	}
}

func TestRandomPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 100} {
		p, err := RandomPerm(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != n {
			t.Fatalf("len = %d, want %d", len(p), n)
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("RandomPerm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
	if _, err := RandomPerm(-1); err == nil {
		t.Fatal("expected error for negative size")
	}
}

func TestInvertPerm(t *testing.T) {
	p, err := RandomPerm(50)
	if err != nil {
		t.Fatal(err)
	}
	inv := InvertPerm(p)
	for i, v := range p {
		if inv[v] != i {
			t.Fatalf("InvertPerm broken at %d", i)
		}
	}
}
