package cloud

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/paillier"
	"repro/internal/transport"
)

// labelKey is a public key whose nonce powers are a label: an encryption
// of zero is then the bare label, so one encryption reads off which
// producer newEnc's surface drew from, and the draw count shows whether a
// pool is prefetching behind it.
type labelKey struct {
	*paillier.PublicKey
	draws *atomic.Int64
}

const keyLabel = 7

func (k labelKey) NoncePower() (*big.Int, error) {
	k.draws.Add(1)
	return big.NewInt(keyLabel), nil
}

// pickedProducer runs newEnc over a labelled key and returns the label
// its surface encrypts with, checking on the way that the surface is
// pooled exactly when pools are enabled (GOMAXPROCS above 1).
func pickedProducer(t *testing.T) int64 {
	t.Helper()
	key := labelKey{PublicKey: &env(t).keys.Paillier.PublicKey, draws: new(atomic.Int64)}
	enc := newEnc(key)
	defer enc.Close()
	ct, err := enc.Encrypt(new(big.Int))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	// One encryption is one draw, unless pool fillers are running ahead.
	deadline := time.Now().Add(2 * time.Second)
	for poolsEnabled() && key.draws.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if prefetching := key.draws.Load() > 1; prefetching != poolsEnabled() {
		t.Errorf("%d draws for one encryption with pools enabled = %v", key.draws.Load(), poolsEnabled())
	}
	return ct.C.Int64()
}

// TestNonceSurfaces pins the one nonce producer: every surface a party
// builds draws from its key's own NoncePower (the fixed-base table),
// whether or not the party holds the factors, pooled exactly when pools
// run — at one core (pools off) and at eight (pools on) — and the
// surfaces a real Server and Client build, S2's and S1's under the
// relation key and S1's under its ephemeral key, encrypt what their key
// holders decrypt.
func TestNonceSurfaces(t *testing.T) {
	e := env(t)
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			if poolsEnabled() != (procs > 1) {
				t.Errorf("pools enabled = %v", poolsEnabled())
			}
			if got := pickedProducer(t); got != keyLabel {
				t.Errorf("surface drew %d, want the key's own producer (%d)", got, keyLabel)
			}

			srv, err := NewServer(e.keys, nil)
			if err != nil {
				t.Fatalf("NewServer: %v", err)
			}
			defer srv.Close()
			client, err := NewClient(transport.NewLocal(srv, nil), &e.keys.Paillier.PublicKey, nil)
			if err != nil {
				t.Fatalf("NewClient: %v", err)
			}
			defer client.Close()
			for _, sf := range []struct {
				name string
				enc  paillier.Encryptor
				sk   *paillier.PrivateKey
			}{
				{"server pkEnc", srv.pkEnc, e.keys.Paillier},
				{"client Enc", client.Enc(), e.keys.Paillier},
				{"client EphEnc", client.EphEnc(), client.eph},
			} {
				ct, err := sf.enc.Encrypt(big.NewInt(99))
				if err != nil {
					t.Fatalf("%s: Encrypt: %v", sf.name, err)
				}
				if m, err := sf.sk.Decrypt(ct); err != nil || m.Int64() != 99 {
					t.Errorf("%s: round trip -> %v (%v)", sf.name, m, err)
				}
			}
		})
	}
}

// TestEphemeralKeysBuiltOncePerClient: S2 rebuilds an S1 ephemeral key
// once, not once per round — the same modulus returns the same key, and
// with it the same nonce table — and holds at most ephemeralKeyCap of
// them, evicting the least recently used.
func TestEphemeralKeysBuiltOncePerClient(t *testing.T) {
	pk := &env(t).keys.Paillier.PublicKey
	var cache ephemeralKeys
	moduli := make([]*big.Int, ephemeralKeyCap+2)
	for i := range moduli {
		for moduli[i] == nil || moduli[i].BitLen() != pk.N.BitLen()+ephemeralBits {
			p, err := rand.Prime(rand.Reader, (pk.N.BitLen()+ephemeralBits)/2)
			if err != nil {
				t.Fatal(err)
			}
			q, err := rand.Prime(rand.Reader, (pk.N.BitLen()+ephemeralBits)/2)
			if err != nil {
				t.Fatal(err)
			}
			moduli[i] = new(big.Int).Mul(p, q)
		}
	}
	get := func(n *big.Int) *paillier.PublicKey {
		t.Helper()
		k, err := cache.get(pk, n)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	first := get(moduli[0])
	if get(new(big.Int).Set(moduli[0])) != first {
		t.Fatal("the same ephemeral modulus was rebuilt")
	}
	for _, n := range moduli[1:] {
		get(n)
		get(moduli[0]) // the first client stays the most recently used
	}
	if len(cache.keys) != ephemeralKeyCap {
		t.Fatalf("%d ephemeral keys cached, want the cap %d", len(cache.keys), ephemeralKeyCap)
	}
	if get(moduli[0]) != first {
		t.Fatal("a key in steady use was evicted")
	}
	if cache.lookup(moduli[1], nil) != nil {
		t.Fatal("the least recently used key was kept past the cap")
	}

	// Rounds of one new client racing each other all get one key.
	keys := make([]*paillier.PublicKey, 8)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := cache.get(pk, moduli[1])
			if err != nil {
				t.Error(err)
			}
			keys[i] = k
		}(i)
	}
	wg.Wait()
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Fatal("racing rounds of one client got different keys")
		}
	}
}
