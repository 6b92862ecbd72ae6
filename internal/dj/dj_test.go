package dj

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/paillier"
	"repro/internal/zmath"
)

var (
	keyOnce  sync.Once
	basePail *paillier.PrivateKey
	testSK2  *PrivateKey // s = 2
)

func keys(t testing.TB) (*paillier.PrivateKey, *PrivateKey) {
	t.Helper()
	keyOnce.Do(func() {
		var err error
		basePail, err = paillier.GenerateKey(rand.Reader, 512)
		if err != nil {
			t.Fatalf("paillier.GenerateKey: %v", err)
		}
		testSK2, err = NewPrivateKey(basePail, 2)
		if err != nil {
			t.Fatalf("dj.NewPrivateKey: %v", err)
		}
	})
	return basePail, testSK2
}

func TestDegreeValidation(t *testing.T) {
	pail, _ := keys(t)
	if _, err := NewPublicKey(&pail.PublicKey, 0); err != ErrDegree {
		t.Fatalf("expected ErrDegree, got %v", err)
	}
	if _, err := NewPrivateKey(pail, -1); err != ErrDegree {
		t.Fatalf("expected ErrDegree, got %v", err)
	}
}

func TestRoundTripSmall(t *testing.T) {
	_, sk := keys(t)
	for _, m := range []int64{0, 1, 2, 42, 1 << 40} {
		ct, err := sk.EncryptInt64(m)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", m, err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", m, err)
		}
		if got.Int64() != m {
			t.Errorf("round trip %d -> %v", m, got)
		}
	}
}

func TestRoundTripLargerThanN(t *testing.T) {
	// Messages beyond N (but below N^2) are the whole point of s = 2:
	// the plaintext space must hold first-layer Paillier ciphertexts.
	_, sk := keys(t)
	m := new(big.Int).Mul(sk.N, big.NewInt(12345))
	m.Add(m, big.NewInt(678))
	ct, err := sk.Encrypt(m)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if got.Cmp(m) != 0 {
		t.Fatalf("round trip mismatch: got %v want %v", got, m)
	}
}

func TestRoundTripDegree1And3(t *testing.T) {
	pail, _ := keys(t)
	for _, s := range []int{1, 3} {
		sk, err := NewPrivateKey(pail, s)
		if err != nil {
			t.Fatalf("NewPrivateKey(s=%d): %v", s, err)
		}
		m, err := zmath.RandInt(rand.Reader, sk.NS)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := sk.Encrypt(m)
		if err != nil {
			t.Fatalf("Encrypt(s=%d): %v", s, err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt(s=%d): %v", s, err)
		}
		if got.Cmp(m) != 0 {
			t.Fatalf("s=%d round trip mismatch", s)
		}
	}
}

func TestHomomorphicAdd(t *testing.T) {
	_, sk := keys(t)
	f := func(x, y uint32) bool {
		a, _ := sk.EncryptInt64(int64(x))
		b, _ := sk.EncryptInt64(int64(y))
		sum, err := sk.Add(a, b)
		if err != nil {
			return false
		}
		m, err := sk.Decrypt(sum)
		if err != nil {
			return false
		}
		return m.Int64() == int64(x)+int64(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestExpConst(t *testing.T) {
	_, sk := keys(t)
	a, _ := sk.EncryptInt64(7)
	// A negative exponent is reduced mod N^s first.
	for _, k := range []int64{6, 0, 1, -1, 1000, 3} {
		out, err := sk.ExpCipher(a, &paillier.Ciphertext{C: big.NewInt(k)})
		if err != nil {
			t.Fatalf("ExpCipher: %v", err)
		}
		want := new(big.Int).Mod(big.NewInt(7*k), sk.NS)
		if m, _ := sk.Decrypt(out); m.Cmp(want) != 0 {
			t.Fatalf("7*%d = %v, want %v", k, m, want)
		}
	}
	if _, err := sk.ExpCipher(a, &paillier.Ciphertext{}); err == nil {
		t.Fatal("ExpCipher accepted a nil exponent")
	}
}

func TestLayeredHomomorphism(t *testing.T) {
	// The identity the whole paper rests on:
	// E2(Enc(m1))^{Enc(m2)} = E2(Enc(m1+m2)).
	pail, sk := keys(t)
	enc1, _ := pail.EncryptInt64(30)
	enc2, _ := pail.EncryptInt64(12)
	outer, err := sk.EncryptInner(enc1)
	if err != nil {
		t.Fatalf("EncryptInner: %v", err)
	}
	combined, err := sk.ExpCipher(outer, enc2)
	if err != nil {
		t.Fatalf("ExpCipher: %v", err)
	}
	inner, err := sk.DecryptInner(combined)
	if err != nil {
		t.Fatalf("DecryptInner: %v", err)
	}
	m, err := pail.Decrypt(inner)
	if err != nil {
		t.Fatalf("inner Decrypt: %v", err)
	}
	if m.Int64() != 42 {
		t.Fatalf("layered sum = %v, want 42", m)
	}
}

func TestSelectionIdentity(t *testing.T) {
	// (1+N)^{Enc(y)} * E2(t)^{Enc(x)-Enc(y) mod N^2} = E2(t*Enc(x) + (1-t)*Enc(y)),
	// i.e. the inner plaintext selects Enc(x) when t=1 and Enc(y) when t=0.
	// This is Algorithm 5's selection, which the query path replaced with a
	// Paillier gadget; the difference is negative for one of the two
	// orders of (x, y).
	pail, sk := keys(t)
	x, _ := pail.EncryptInt64(111)
	y, _ := pail.EncryptInt64(222)
	for _, pair := range [][2]*paillier.Ciphertext{{x, y}, {y, x}} {
		a, b := pair[0], pair[1]
		for _, tBit := range []int64{0, 1} {
			et, _ := sk.EncryptInt64(tBit)
			// (1+N)^{Enc(y)}: the outer encryption of b under nonce 1.
			base, err := sk.EncryptWithPower(b.C, big.NewInt(1))
			if err != nil {
				t.Fatalf("EncryptWithPower: %v", err)
			}
			term, err := sk.ExpCipher(et, &paillier.Ciphertext{C: new(big.Int).Sub(a.C, b.C)})
			if err != nil {
				t.Fatalf("ExpCipher: %v", err)
			}
			sel, _ := sk.Add(base, term)
			inner, err := sk.DecryptInner(sel)
			if err != nil {
				t.Fatalf("DecryptInner: %v", err)
			}
			want := b
			if tBit == 1 {
				want = a
			}
			if inner.C.Cmp(want.C) != 0 {
				t.Fatalf("select(t=%d) did not return the chosen ciphertext", tBit)
			}
		}
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	_, sk := keys(t)
	a, _ := sk.EncryptInt64(9)
	b, _ := sk.EncryptInt64(9)
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("two encryptions identical")
	}
}

func TestInvalidInputs(t *testing.T) {
	pail, sk := keys(t)
	if _, err := sk.Encrypt(nil); err == nil {
		t.Error("expected error for nil message")
	}
	if _, err := sk.Decrypt(nil); err == nil {
		t.Error("expected error for nil ciphertext")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Error("expected error for zero ciphertext")
	}
	if _, err := sk.Add(&Ciphertext{C: big.NewInt(0)}, nil); err == nil {
		t.Error("expected error for invalid Add operands")
	}
	if _, err := sk.ExpCipher(&Ciphertext{C: big.NewInt(1)}, nil); err == nil {
		t.Error("expected error for nil exponent")
	}
	// EncryptInner/DecryptInner require s >= 2.
	sk1, err := NewPrivateKey(pail, 1)
	if err != nil {
		t.Fatal(err)
	}
	innerCt, _ := pail.EncryptInt64(1)
	if _, err := sk1.EncryptInner(innerCt); err == nil {
		t.Error("expected error for EncryptInner with s=1")
	}
	c1, _ := sk1.EncryptInt64(1)
	if _, err := sk1.DecryptInner(c1); err == nil {
		t.Error("expected error for DecryptInner with s=1")
	}
}

func TestExtractRejectsGarbage(t *testing.T) {
	_, sk := keys(t)
	// A random element of Z_{N^3} is (w.h.p.) not a pure (1+N)-power after
	// the d exponentiation check inside extract.
	bad := &Ciphertext{C: big.NewInt(2)}
	// This may or may not error depending on the algebra, but must never
	// panic.
	_, _ = sk.Decrypt(bad)
}

func TestCloneAndByteLen(t *testing.T) {
	_, sk := keys(t)
	a, _ := sk.EncryptInt64(3)
	b := a.Clone()
	b.C.Add(b.C, big.NewInt(1))
	if m, _ := sk.Decrypt(a); m.Int64() != 3 {
		t.Fatal("Clone aliases original")
	}
	if (*Ciphertext)(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
	if sk.ByteLen() <= 0 {
		t.Fatal("ByteLen must be positive")
	}
}

func TestExpOnePlusNMatchesExp(t *testing.T) {
	_, sk := keys(t)
	g := new(big.Int).Add(sk.N, zmath.One)
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		m := new(big.Int).Mod(big.NewInt(seed), sk.NS)
		fast := sk.expOnePlusN(m)
		slow := new(big.Int).Exp(g, m, sk.NS1)
		return fast.Cmp(slow) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	// Also check with a huge exponent near N^s.
	m := new(big.Int).Sub(sk.NS, big.NewInt(3))
	if sk.expOnePlusN(m).Cmp(new(big.Int).Exp(g, m, sk.NS1)) != 0 {
		t.Fatal("expOnePlusN mismatch for large exponent")
	}
}

func BenchmarkEncryptS2(b *testing.B) {
	_, sk := keys(b)
	m := big.NewInt(424242)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptS2(b *testing.B) {
	_, sk := keys(b)
	ct, _ := sk.EncryptInt64(424242)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}
