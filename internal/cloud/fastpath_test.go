package cloud

import (
	"fmt"
	"math/big"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/paillier"
	"repro/internal/transport"
)

// labelKey is a public key whose spec path, like the producers
// pickedProducer hands newEnc, draws a label as its nonce power: an
// encryption of zero is then the bare label, so one encryption reads off
// which producer newEnc picked, and the shared draw count shows whether a
// pool is prefetching behind it.
type labelKey struct {
	*paillier.PublicKey
	draws *atomic.Int64
}

const (
	specLabel = iota + 1
	crtLabel
)

func (k labelKey) producer(label int64) func() (*big.Int, error) {
	return func() (*big.Int, error) {
		k.draws.Add(1)
		return big.NewInt(label), nil
	}
}

func (k labelKey) NoncePower() (*big.Int, error) { return k.producer(specLabel)() }

// pickedProducer runs newEnc for a party that does or does not hold the
// private key and returns the label of the producer its surface draws
// from, checking on the way that the surface is pooled exactly when pools
// are enabled (GOMAXPROCS above 1).
func pickedProducer(t *testing.T, holdsKey bool) int64 {
	t.Helper()
	key := labelKey{PublicKey: &env(t).keys.Paillier.PublicKey, draws: new(atomic.Int64)}
	var crt func() *paillier.NonceEncryptor
	if holdsKey {
		crt = func() *paillier.NonceEncryptor {
			return paillier.NewNonceEncryptor(key.PublicKey, key.producer(crtLabel))
		}
	}
	enc := newEnc(key, crt)
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

// TestNonceSurfaces pins which nonce producer a party's surface draws
// from — the CRT sampler for a key holder, the spec path for a party
// without the key, pooled exactly when pools run — at one core (pools
// off) and at eight (pools on), and that the surfaces a real Server and
// Client build encrypt what their key holders decrypt.
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
			if got := pickedProducer(t, true); got != crtLabel {
				t.Errorf("key held: picked producer %d, want CRT (%d)", got, crtLabel)
			}
			if got := pickedProducer(t, false); got != specLabel {
				t.Errorf("no key: picked producer %d, want spec (%d)", got, specLabel)
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
