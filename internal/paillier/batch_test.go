package paillier

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"testing"
)

func testKey(t testing.TB) *PrivateKey {
	t.Helper()
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return sk
}

func TestBatchRoundTrip(t *testing.T) {
	sk := testKey(t)
	pk := &sk.PublicKey
	const n = 40
	ms := make([]*big.Int, n)
	for i := range ms {
		ms[i] = big.NewInt(int64(1000 - i))
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		cts, err := EncryptBatch(pk, ms)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.DecryptBatch(cts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ms {
			if got[i].Cmp(ms[i]) != 0 {
				t.Fatalf("GOMAXPROCS=%d: round trip broke at %d: got %v want %v", procs, i, got[i], ms[i])
			}
		}
	}
}

func mustEncrypt(t *testing.T, pk *PublicKey, m *big.Int) *Ciphertext {
	t.Helper()
	ct, err := pk.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}
