package paillier

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/zmath"
)

// testKey caches a key pair across tests; key generation dominates
// otherwise.
var (
	keyOnce sync.Once
	testSK  *PrivateKey
)

func testKeyPair(t *testing.T) *PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		sk, err := GenerateKey(rand.Reader, 512)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		testSK = sk
	})
	return testSK
}

func TestGenerateKeyRejectsTinyKeys(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 64); err == nil {
		t.Fatal("expected error for 64-bit key")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKeyPair(t)
	for _, m := range []int64{0, 1, 2, 42, 1 << 30, -1, -100} {
		ct, err := sk.EncryptInt64(m)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", m, err)
		}
		got, err := sk.DecryptSigned(ct)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", m, err)
		}
		if got.Int64() != m {
			t.Errorf("round trip %d -> %v", m, got)
		}
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.EncryptInt64(7)
	b, _ := sk.EncryptInt64(7)
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("two encryptions of the same message are identical")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := testKeyPair(t)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHomomorphicMulConst(t *testing.T) {
	sk := testKeyPair(t)
	f := func(x uint16, k uint16) bool {
		a, _ := sk.EncryptInt64(int64(x))
		ka, err := sk.MulConst(a, big.NewInt(int64(k)))
		if err != nil {
			return false
		}
		m, err := sk.Decrypt(ka)
		if err != nil {
			return false
		}
		return m.Int64() == int64(x)*int64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHomomorphicSubAndNeg(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.EncryptInt64(100)
	b, _ := sk.EncryptInt64(42)
	diff, err := sk.Sub(a, b)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if m, _ := sk.Decrypt(diff); m.Int64() != 58 {
		t.Fatalf("100-42 = %v", m)
	}
	// Negative result comes out as a residue; signed view recovers it.
	diff2, _ := sk.Sub(b, a)
	if m, _ := sk.DecryptSigned(diff2); m.Int64() != -58 {
		t.Fatalf("42-100 signed = %v", m)
	}
}

func TestAddPlain(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.EncryptInt64(5)
	c, err := sk.AddPlain(a, big.NewInt(37))
	if err != nil {
		t.Fatalf("AddPlain: %v", err)
	}
	if m, _ := sk.Decrypt(c); m.Int64() != 42 {
		t.Fatalf("5+37 = %v", m)
	}
	c2, _ := sk.AddPlain(a, big.NewInt(-6))
	if m, _ := sk.DecryptSigned(c2); m.Int64() != -1 {
		t.Fatalf("5-6 = %v", m)
	}
}

func TestRerandomize(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.EncryptInt64(99)
	b, err := sk.Rerandomize(a)
	if err != nil {
		t.Fatalf("Rerandomize: %v", err)
	}
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("rerandomized ciphertext equals input")
	}
	if m, _ := sk.Decrypt(b); m.Int64() != 99 {
		t.Fatalf("rerandomize changed plaintext: %v", m)
	}
}

func TestSentinelMinusOne(t *testing.T) {
	sk := testKeyPair(t)
	// The dedup sentinel Z = N-1 must read as -1 in the signed view so that
	// it sinks below all real (non-negative) scores.
	z := new(big.Int).Sub(sk.N, zmath.One)
	ct, _ := sk.Encrypt(z)
	m, _ := sk.DecryptSigned(ct)
	if m.Int64() != -1 {
		t.Fatalf("sentinel decrypts to %v, want -1", m)
	}
}

func TestInvalidCiphertextRejected(t *testing.T) {
	sk := testKeyPair(t)
	bad := []*Ciphertext{
		nil,
		{C: nil},
		{C: big.NewInt(0)},
		{C: new(big.Int).Set(sk.N2)},
	}
	for i, c := range bad {
		if _, err := sk.Decrypt(c); err == nil {
			t.Errorf("case %d: expected decryption error", i)
		}
		if _, err := sk.Add(c, c); err == nil {
			t.Errorf("case %d: expected Add error", i)
		}
	}
}

func TestEncryptNilMessage(t *testing.T) {
	sk := testKeyPair(t)
	if _, err := sk.Encrypt(nil); err == nil {
		t.Fatal("expected error for nil message")
	}
}

func TestEncryptWithNonceValidation(t *testing.T) {
	sk := testKeyPair(t)
	if _, err := sk.EncryptWithNonce(big.NewInt(1), big.NewInt(0)); err == nil {
		t.Fatal("expected error for zero nonce")
	}
	if _, err := sk.EncryptWithNonce(big.NewInt(1), sk.N); err == nil {
		t.Fatal("expected error for nonce = N")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.EncryptInt64(1234)
	b := CiphertextFromBytes(a.Bytes())
	if m, err := sk.Decrypt(b); err != nil || m.Int64() != 1234 {
		t.Fatalf("bytes round trip: %v %v", m, err)
	}
}

func TestClone(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.EncryptInt64(8)
	b := a.Clone()
	b.C.Add(b.C, big.NewInt(1))
	if m, _ := sk.Decrypt(a); m.Int64() != 8 {
		t.Fatal("Clone aliases the original")
	}
	if (*Ciphertext)(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

func TestByteLen(t *testing.T) {
	sk := testKeyPair(t)
	want := (sk.N2.BitLen() + 7) / 8
	if got := sk.ByteLen(); got != want {
		t.Fatalf("ByteLen = %d, want %d", got, want)
	}
}

func TestPublicKeyEqual(t *testing.T) {
	sk := testKeyPair(t)
	if !sk.PublicKey.Equal(&sk.PublicKey) {
		t.Fatal("key should equal itself")
	}
	other := &PublicKey{N: big.NewInt(35), N2: big.NewInt(1225)}
	if sk.PublicKey.Equal(other) {
		t.Fatal("distinct keys reported equal")
	}
	if sk.PublicKey.Equal(nil) {
		t.Fatal("nil key reported equal")
	}
}

func TestLargeMessageWrapsModN(t *testing.T) {
	sk := testKeyPair(t)
	m := new(big.Int).Add(sk.N, big.NewInt(5)) // N+5 ≡ 5
	ct, err := sk.Encrypt(m)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if got, _ := sk.Decrypt(ct); got.Int64() != 5 {
		t.Fatalf("N+5 decrypts to %v, want 5", got)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	sk, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		b.Fatal(err)
	}
	m := big.NewInt(123456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	sk, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		b.Fatal(err)
	}
	ct, _ := sk.EncryptInt64(123456)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomomorphicAdd(b *testing.B) {
	sk, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := sk.EncryptInt64(1)
	y, _ := sk.EncryptInt64(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Add(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddAllMatchesSequentialAdd pins the product-chain accumulator to the
// pairwise operator.
func TestAddAllMatchesSequentialAdd(t *testing.T) {
	sk := testKeyPair(t)
	pk := &sk.PublicKey
	cts := make([]*Ciphertext, 9)
	for i := range cts {
		var err error
		if cts[i], err = pk.Encrypt(big.NewInt(int64(i * i))); err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
	}
	want := cts[0]
	for _, c := range cts[1:] {
		var err error
		if want, err = pk.Add(want, c); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	got, err := pk.AddAll(cts)
	if err != nil {
		t.Fatalf("AddAll: %v", err)
	}
	if got.C.Cmp(want.C) != 0 {
		t.Fatal("AddAll diverges from sequential Add")
	}
	if _, err := pk.AddAll(nil); err == nil {
		t.Fatal("AddAll accepted an empty batch")
	}
}
