package paillier

import (
	"fmt"
	"math/big"

	"repro/internal/parallel"
	"repro/internal/zmath"
)

// Encryptor is the encryption surface the batch helpers and the blinding
// layers program against. Both PublicKey (computes nonces inline) and
// NoncePool (draws precomputed nonce powers) implement it, so callers can
// be handed whichever the deployment configured without caring.
type Encryptor interface {
	Encrypt(m *big.Int) (*Ciphertext, error)
	EncryptZero() (*Ciphertext, error)
	Rerandomize(a *Ciphertext) (*Ciphertext, error)
	Key() *PublicKey
}

// Key returns the public key itself, making PublicKey an Encryptor.
func (pk *PublicKey) Key() *PublicKey { return pk }

// encryptWithRN assembles Enc(m) from a precomputed nonce power
// rn = r^N mod N^2: Enc(m) = (1 + m*N) * rn mod N^2.
func (pk *PublicKey) encryptWithRN(m, rn *big.Int) (*Ciphertext, error) {
	mm, err := pk.validateMessage(m)
	if err != nil {
		return nil, err
	}
	// gm = 1 + m*N < N^2 already, so the only reduction is the engine's
	// nonce multiply.
	gm := new(big.Int).Mul(mm, pk.N)
	gm.Add(gm, zmath.One)
	return &Ciphertext{C: pk.mulN2(gm, rn)}, nil
}

// EncryptBatch encrypts every message with fresh randomness, fanning the
// nonce exponentiations out over at most parallel.Workers(par) goroutines.
// par follows the shared knob convention (0 = all cores, 1 = serial).
func EncryptBatch(enc Encryptor, ms []*big.Int, par int) ([]*Ciphertext, error) {
	return parallel.MapErr(par, ms, func(_ int, m *big.Int) (*Ciphertext, error) {
		return enc.Encrypt(m)
	})
}

// EncryptZeroBatch returns n independent fresh encryptions of zero.
func EncryptZeroBatch(enc Encryptor, n, par int) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, n)
	err := parallel.ForEach(par, n, func(i int) error {
		ct, err := enc.EncryptZero()
		if err != nil {
			return err
		}
		out[i] = ct
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RerandomizeBatch re-randomizes every ciphertext.
func RerandomizeBatch(enc Encryptor, cts []*Ciphertext, par int) ([]*Ciphertext, error) {
	return parallel.MapErr(par, cts, func(_ int, c *Ciphertext) (*Ciphertext, error) {
		return enc.Rerandomize(c)
	})
}

// EncryptWithNonceBatch encrypts ms[i] under rs[i]. Deterministic given
// the nonces, so serial/parallel equivalence is directly testable.
func (pk *PublicKey) EncryptWithNonceBatch(ms, rs []*big.Int, par int) ([]*Ciphertext, error) {
	if len(ms) != len(rs) {
		return nil, fmt.Errorf("paillier: %d messages for %d nonces", len(ms), len(rs))
	}
	return parallel.MapErr(par, ms, func(i int, m *big.Int) (*Ciphertext, error) {
		return pk.EncryptWithNonce(m, rs[i])
	})
}

// DecryptBatch decrypts every ciphertext. Errors carry the failing index.
func (sk *PrivateKey) DecryptBatch(cts []*Ciphertext, par int) ([]*big.Int, error) {
	return parallel.MapErr(par, cts, func(i int, c *Ciphertext) (*big.Int, error) {
		m, err := sk.Decrypt(c)
		if err != nil {
			return nil, fmt.Errorf("paillier: DecryptBatch[%d]: %w", i, err)
		}
		return m, nil
	})
}

// DecryptSignedBatch decrypts every ciphertext into (-N/2, N/2].
func (sk *PrivateKey) DecryptSignedBatch(cts []*Ciphertext, par int) ([]*big.Int, error) {
	return parallel.MapErr(par, cts, func(i int, c *Ciphertext) (*big.Int, error) {
		m, err := sk.DecryptSigned(c)
		if err != nil {
			return nil, fmt.Errorf("paillier: DecryptSignedBatch[%d]: %w", i, err)
		}
		return m, nil
	})
}

// NoncePool precomputes nonce powers r^N mod N^2 — the single hottest
// operation in the system — on background goroutines so foreground
// encryptions reduce to two modular multiplications. The powers come from
// any NonceSource: the spec path (a *PublicKey), the key holder's CRT
// split, or the fast-nonce table, so pooling composes with the
// precomputation fast paths. A drained pool falls back to computing
// inline, so the pool is purely a throughput optimization and never
// changes results.
type NoncePool struct {
	src  NonceSource
	pool *parallel.Pool[*big.Int]
}

// NewNoncePool starts workers filler goroutines maintaining up to capacity
// precomputed nonce powers drawn from src. Close must be called to
// release them.
func NewNoncePool(src NonceSource, workers, capacity int) *NoncePool {
	return &NoncePool{src: src, pool: parallel.NewPool(workers, capacity, src.NoncePower)}
}

// Close stops the background fillers. Safe to call once; the pool remains
// usable afterwards (Get computes inline).
func (np *NoncePool) Close() { np.pool.Close() }

// get returns a precomputed nonce power, or computes one inline when the
// pool is drained.
func (np *NoncePool) get() (*big.Int, error) {
	if rn, ok := np.pool.Get(); ok {
		return rn, nil
	}
	return np.src.NoncePower()
}

// Key returns the underlying public key.
func (np *NoncePool) Key() *PublicKey { return np.src.Key() }

// Source returns the nonce producer the pool buffers (the spec path, the
// CRT split or the fast-nonce table): the pool decides when a nonce power
// is computed, its source decides how.
func (np *NoncePool) Source() NonceSource { return np.src }

// NoncePower returns a pooled nonce power (inline when drained), making
// the pool itself a NonceSource.
func (np *NoncePool) NoncePower() (*big.Int, error) { return np.get() }

// Encrypt encrypts m using a pooled nonce power.
func (np *NoncePool) Encrypt(m *big.Int) (*Ciphertext, error) {
	rn, err := np.get()
	if err != nil {
		return nil, err
	}
	return np.Key().encryptWithRN(m, rn)
}

// EncryptZero returns a fresh encryption of zero from the pool.
func (np *NoncePool) EncryptZero() (*Ciphertext, error) {
	return np.Encrypt(zmath.Zero)
}

// Rerandomize multiplies by a pooled fresh encryption of zero.
func (np *NoncePool) Rerandomize(a *Ciphertext) (*Ciphertext, error) {
	z, err := np.EncryptZero()
	if err != nil {
		return nil, err
	}
	return np.Key().Add(a, z)
}
