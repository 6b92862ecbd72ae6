package paillier

import (
	"math/big"

	"repro/internal/parallel"
	"repro/internal/zmath"
)

// NonceSource produces the nonce powers r^N mod N^2 that dominate
// Paillier encryption. PublicKey computes them with a full-width
// variable-base exponentiation (the spec path); a NonceEncryptor draws
// them from the key holder's CRT sampler or a background pool over any
// NonceSource. Both draw the spec path's distribution. The producers
// themselves are zmath's (nonce.go).
type NonceSource interface {
	Key() *PublicKey
	NoncePower() (*big.Int, error)
}

// NoncePower samples a fresh r in Z*_N and returns r^N mod N^2 — the spec
// path, one full-width exponentiation per nonce.
func (pk *PublicKey) NoncePower() (*big.Int, error) {
	return zmath.SpecNoncePower(pk.N, pk.N, pk.N2)
}

// NonceEncryptor is every encryption surface other than the bare
// PublicKey: the key plus where its nonce powers come from.
type NonceEncryptor struct {
	key   *PublicKey
	power func() (*big.Int, error)
	close func() // stops a pool's fillers; nil on unpooled surfaces
}

// NewNonceEncryptor encrypts under pk with nonce powers drawn from power.
func NewNonceEncryptor(pk *PublicKey, power func() (*big.Int, error)) *NonceEncryptor {
	return &NonceEncryptor{key: pk, power: power}
}

// CRTEncryptor returns the key holder's encryption surface: nonce powers
// from zmath.CRTNonce, the spec path's exact distribution at a fraction
// of its cost.
func (sk *PrivateKey) CRTEncryptor() *NonceEncryptor {
	return NewNonceEncryptor(&sk.PublicKey, sk.crtNonce().NoncePower)
}

// crtNonce is the CRT sampler over this key's factors, at s = 1.
func (sk *PrivateKey) crtNonce() *zmath.CRTNonce {
	return zmath.NewCRTNonce(sk.P, sk.Q, sk.p2InvModQ2, 1)
}

// NewNoncePool buffers up to capacity of src's nonce powers on workers
// background goroutines (started by the first draw). A drained or closed
// pool computes inline (parallel.Pool.Next), so pooling never changes
// results. Close must be called to release the fillers.
func NewNoncePool(src NonceSource, workers, capacity int) *NonceEncryptor {
	pool := parallel.NewPool(workers, capacity, src.NoncePower)
	return &NonceEncryptor{key: src.Key(), power: pool.Next, close: pool.Close}
}

// Close stops a pool's background fillers; the surface remains usable
// afterwards. A no-op on unpooled surfaces.
func (e *NonceEncryptor) Close() {
	if e.close != nil {
		e.close()
	}
}

// Key returns the underlying public key.
func (e *NonceEncryptor) Key() *PublicKey { return e.key }

// NoncePower returns the surface's next nonce power, which makes it a
// source a pool can buffer.
func (e *NonceEncryptor) NoncePower() (*big.Int, error) { return e.power() }

// Encrypt encrypts m under the surface's next nonce power.
func (e *NonceEncryptor) Encrypt(m *big.Int) (*Ciphertext, error) {
	rn, err := e.power()
	if err != nil {
		return nil, err
	}
	return e.key.EncryptWithPower(m, rn)
}

// EncryptZero returns a fresh encryption of zero.
func (e *NonceEncryptor) EncryptZero() (*Ciphertext, error) { return e.Encrypt(zmath.Zero) }

// Rerandomize multiplies by a fresh encryption of zero.
func (e *NonceEncryptor) Rerandomize(a *Ciphertext) (*Ciphertext, error) {
	z, err := e.EncryptZero()
	if err != nil {
		return nil, err
	}
	return e.key.Add(a, z)
}
