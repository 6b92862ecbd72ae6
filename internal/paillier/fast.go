package paillier

import (
	"math/big"

	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/zmath"
)

// NonceSource produces the nonce powers r^N mod N^2 that dominate
// Paillier encryption. PublicKey draws them from its one producer, the
// fixed-base table zmath.NonceBase; a NonceEncryptor draws them from a
// source or from a background pool over one.
type NonceSource interface {
	Key() *PublicKey
	NoncePower() (*big.Int, error)
}

// NoncePower returns a fresh nonce power ±H^x mod N^2 from the key's
// fixed-base table (built on the first draw): the spec path's uniform
// N-th residue to within 2^-40, for every party, whether or not it holds
// the factors (zmath.NonceBase).
func (pk *PublicKey) NoncePower() (*big.Int, error) {
	return pk.nonce.NoncePower()
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

// NewNoncePool buffers up to capacity of src's nonce powers on workers
// background goroutines (started by the first draw). A drained or closed
// pool computes inline, as parallel.Pool.Next does, so pooling never
// changes results. Every draw counts as a hit (the buffer served it) or a
// miss (it was computed inline) on telemetry.NoncePoolDraws. Close must
// be called to release the fillers.
func NewNoncePool(src NonceSource, workers, capacity int) *NonceEncryptor {
	pool := parallel.NewPool(workers, capacity, src.NoncePower)
	hit, miss := telemetry.NoncePoolDraws()
	power := func() (*big.Int, error) {
		if v, ok := pool.Get(); ok {
			hit.Inc()
			return v, nil
		}
		miss.Inc()
		return src.NoncePower()
	}
	return &NonceEncryptor{key: src.Key(), power: power, close: pool.Close}
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
