package ehl

import (
	"crypto/rand"
	"math/big"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/paillier"
	"repro/internal/prf"
)

var (
	keyOnce sync.Once
	testSK  *paillier.PrivateKey
)

func testKey(t testing.TB) *paillier.PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		sk, err := paillier.GenerateKey(rand.Reader, 512)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		testSK = sk
	})
	return testSK
}

func newHasher(t testing.TB, params Params) *Hasher {
	t.Helper()
	return hasherOn(t, params, &testKey(t).PublicKey)
}

// hasherOn builds a hasher with a fixed master key over the given
// encryption surface, so hashers on different surfaces share digests.
func hasherOn(t testing.TB, params Params, enc paillier.Encryptor) *Hasher {
	t.Helper()
	master := prf.Key(make([]byte, prf.KeySize))
	for i := range master {
		master[i] = byte(i)
	}
	h, err := NewHasher(master, params, enc)
	if err != nil {
		t.Fatalf("NewHasher: %v", err)
	}
	return h
}

// countingEnc counts every encryption drawn through it.
type countingEnc struct {
	paillier.Encryptor
	n atomic.Int64
}

func (c *countingEnc) Encrypt(m *big.Int) (*paillier.Ciphertext, error) {
	c.n.Add(1)
	return c.Encryptor.Encrypt(m)
}

func (c *countingEnc) EncryptZero() (*paillier.Ciphertext, error) {
	c.n.Add(1)
	return c.Encryptor.EncryptZero()
}

func (c *countingEnc) Rerandomize(a *paillier.Ciphertext) (*paillier.Ciphertext, error) {
	c.n.Add(1)
	return c.Encryptor.Rerandomize(a)
}

func TestListsEncryptThroughTheGivenSurface(t *testing.T) {
	sk := testKey(t)
	for _, params := range []Params{DefaultPlusParams(), {Kind: KindPlus, S: 3}} {
		enc := &countingEnc{Encryptor: &sk.PublicKey}
		h := hasherOn(t, params, enc)
		if _, err := h.Build(7); err != nil {
			t.Fatalf("s = %d Build: %v", params.S, err)
		}
		if got := enc.n.Load(); got != int64(params.Width()) {
			t.Fatalf("s = %d Build drew %d encryptions from the hasher's surface, want %d", params.S, got, params.Width())
		}
		if _, err := h.BuildBytes([]byte("value-7")); err != nil {
			t.Fatalf("s = %d BuildBytes: %v", params.S, err)
		}
		if got := enc.n.Load(); got != 2*int64(params.Width()) {
			t.Fatalf("s = %d BuildBytes drew %d encryptions, want %d", params.S, got-int64(params.Width()), params.Width())
		}
	}
}

func TestListsMatchAcrossSurfaces(t *testing.T) {
	// A list built through a pooled surface, S1's kind, and one built on
	// the bare key, the owner's, encrypt the same digests: Sub sees only
	// plaintexts.
	sk := testKey(t)
	pool := paillier.NewNoncePool(&sk.PublicKey, 1, 8)
	defer pool.Close()
	for _, params := range []Params{DefaultPlusParams(), {Kind: KindPlus, S: 3}} {
		pooled := hasherOn(t, params, pool)
		spec := hasherOn(t, params, &sk.PublicKey)
		a, err := pooled.Build(7)
		if err != nil {
			t.Fatal(err)
		}
		same, err := spec.Build(7)
		if err != nil {
			t.Fatal(err)
		}
		other, err := spec.Build(8)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Sub(&sk.PublicKey, a, same)
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := sk.Decrypt(d); m.Sign() != 0 {
			t.Fatalf("s = %d: pooled and bare-key lists of one id differ (Sub decrypts to %v)", params.S, m)
		}
		d, err = Sub(&sk.PublicKey, a, other)
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := sk.Decrypt(d); m.Sign() == 0 {
			t.Fatalf("s = %d: pooled and bare-key lists of distinct ids match", params.S)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Kind: KindPlus, S: 0},
		{Kind: KindPlus, S: -1},
		{Kind: Kind(9), S: 5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultPlusParams().Validate(); err != nil {
		t.Errorf("default plus params invalid: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KindPlus.String() != "EHL+" {
		t.Fatal("Kind String() wrong")
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestWidth(t *testing.T) {
	if DefaultPlusParams().Width() != 1 {
		t.Fatal("the default list should hold one digest")
	}
	if (Params{Kind: KindPlus, S: 3}).Width() != 3 {
		t.Fatal("EHL+ width should be s")
	}
}

func TestEqualityPlus(t *testing.T) {
	sk := testKey(t)
	h := newHasher(t, DefaultPlusParams())
	a1, err := h.Build(7)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	a2, err := h.Build(7) // same object, fresh randomness
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	b, err := h.Build(8)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	same, err := Sub(&sk.PublicKey, a1, a2)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if m, _ := sk.Decrypt(same); m.Sign() != 0 {
		t.Fatalf("Sub of equal objects decrypts to %v, want 0", m)
	}

	diff, err := Sub(&sk.PublicKey, a1, b)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if m, _ := sk.Decrypt(diff); m.Sign() == 0 {
		t.Fatal("Sub of distinct objects decrypts to 0")
	}
}

func TestSubRandomizedAcrossCalls(t *testing.T) {
	sk := testKey(t)
	h := newHasher(t, DefaultPlusParams())
	a, _ := h.Build(1)
	b, _ := h.Build(2)
	c1, _ := Sub(&sk.PublicKey, a, b)
	c2, _ := Sub(&sk.PublicKey, a, b)
	m1, _ := sk.Decrypt(c1)
	m2, _ := sk.Decrypt(c2)
	if m1.Cmp(m2) == 0 {
		t.Fatal("Sub results should carry fresh randomness per call")
	}
}

func TestListsAreIndistinguishableInForm(t *testing.T) {
	// Lemma 5.1 sanity: two builds of the same object give different
	// ciphertexts (semantic security means no deterministic fingerprint).
	h := newHasher(t, DefaultPlusParams())
	a, _ := h.Build(7)
	b, _ := h.Build(7)
	for i := range a.Cts {
		if a.Cts[i].C.Cmp(b.Cts[i].C) == 0 {
			t.Fatalf("slot %d identical across two encryptions", i)
		}
	}
}

func TestSubIncompatibleLists(t *testing.T) {
	sk := testKey(t)
	h1 := newHasher(t, DefaultPlusParams())
	h3 := newHasher(t, Params{Kind: KindPlus, S: 3})
	a, _ := h1.Build(1)
	b, _ := h3.Build(1)
	if _, err := Sub(&sk.PublicKey, a, b); err == nil {
		t.Fatal("expected error for lists of different widths")
	}
	if _, err := Sub(&sk.PublicKey, nil, a); err == nil {
		t.Fatal("expected error for nil list")
	}
	if _, err := Sub(&sk.PublicKey, &List{}, &List{}); err == nil {
		t.Fatal("two empty lists compared equal")
	}
}

func TestClone(t *testing.T) {
	h := newHasher(t, DefaultPlusParams())
	l, _ := h.Build(6)
	c := l.Clone()
	c.Cts[0].C.Add(c.Cts[0].C, big.NewInt(1))
	if l.Cts[0].C.Cmp(c.Cts[0].C) == 0 {
		t.Fatal("Clone aliases original")
	}
	if (*List)(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

func TestByteSize(t *testing.T) {
	sk := testKey(t)
	for _, params := range []Params{DefaultPlusParams(), {Kind: KindPlus, S: 3}} {
		l, _ := newHasher(t, params).Build(1)
		if got, want := l.ByteSize(&sk.PublicKey), params.Width()*sk.PublicKey.ByteLen(); got != want {
			t.Fatalf("s = %d: list of %d bytes, want %d (one ciphertext per digest)", params.S, got, want)
		}
	}
}

func TestBuildBytesJoinStyle(t *testing.T) {
	// The join setting hashes attribute values; equal values must match
	// across different hashers built from the same master key.
	sk := testKey(t)
	h := newHasher(t, DefaultPlusParams())
	a, _ := h.BuildBytes([]byte("value-120"))
	b, _ := h.BuildBytes([]byte("value-120"))
	c, _ := h.BuildBytes([]byte("value-121"))
	d, _ := Sub(&sk.PublicKey, a, b)
	if m, _ := sk.Decrypt(d); m.Sign() != 0 {
		t.Fatal("equal values should match")
	}
	d2, _ := Sub(&sk.PublicKey, a, c)
	if m, _ := sk.Decrypt(d2); m.Sign() == 0 {
		t.Fatal("distinct values should not match")
	}
}

func TestNewHasherValidation(t *testing.T) {
	sk := testKey(t)
	master, _ := prf.NewKey()
	if _, err := NewHasher(master, Params{Kind: KindPlus, S: 0}, &sk.PublicKey); err == nil {
		t.Fatal("expected param validation error")
	}
	if _, err := NewHasher(master, DefaultPlusParams(), nil); err == nil {
		t.Fatal("expected nil-pk error")
	}
	if _, err := NewHasher(nil, DefaultPlusParams(), &sk.PublicKey); err == nil {
		t.Fatal("expected empty-master error")
	}
}

func BenchmarkBuildPlus(b *testing.B) {
	h := newHasher(b, DefaultPlusParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Build(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubPlus(b *testing.B) {
	sk := testKey(b)
	h := newHasher(b, DefaultPlusParams())
	x, _ := h.Build(1)
	y, _ := h.Build(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sub(&sk.PublicKey, x, y); err != nil {
			b.Fatal(err)
		}
	}
}
