package paillier

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/parallel"
	"repro/internal/zmath"
)

// Encryptor is the encryption surface the batch helpers and the blinding
// layers program against. PublicKey (nonces drawn inline from its
// fixed-base table) and NonceEncryptor (a source's nonce powers, pooled or
// not) implement it, so callers can be handed whichever surface the party
// built without caring.
type Encryptor interface {
	Encrypt(m *big.Int) (*Ciphertext, error)
	EncryptZero() (*Ciphertext, error)
	Rerandomize(a *Ciphertext) (*Ciphertext, error)
	Key() *PublicKey
}

// Key returns the public key itself, making PublicKey an Encryptor.
func (pk *PublicKey) Key() *PublicKey { return pk }

// EncryptWithPower assembles Enc(m) from a nonce power rn = r^N mod N^2:
// Enc(m) = (1 + m*N) * rn mod N^2. Every encryption ends here; rn comes
// from the key's fixed-base table (or, in EncryptWithNonce, from the
// caller's r).
func (pk *PublicKey) EncryptWithPower(m, rn *big.Int) (*Ciphertext, error) {
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
// nonce exponentiations out over at most GOMAXPROCS goroutines.
func EncryptBatch(enc Encryptor, ms []*big.Int) ([]*Ciphertext, error) {
	return parallel.MapErrCtx(context.Background(), ms, func(_ int, m *big.Int) (*Ciphertext, error) {
		return enc.Encrypt(m)
	})
}

// DecryptBatch decrypts every ciphertext. Errors carry the failing index.
func (sk *PrivateKey) DecryptBatch(cts []*Ciphertext) ([]*big.Int, error) {
	return parallel.MapErrCtx(context.Background(), cts, func(i int, c *Ciphertext) (*big.Int, error) {
		m, err := sk.Decrypt(c)
		if err != nil {
			return nil, fmt.Errorf("paillier: DecryptBatch[%d]: %w", i, err)
		}
		return m, nil
	})
}
