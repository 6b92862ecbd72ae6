package dj

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/paillier"
	"repro/internal/parallel"
)

// Encryptor is the DJ encryption surface shared by PublicKey and
// NonceEncryptor, mirroring paillier.Encryptor.
type Encryptor interface {
	Encrypt(m *big.Int) (*Ciphertext, error)
	Rerandomize(a *Ciphertext) (*Ciphertext, error)
	Key() *PublicKey
}

// Key returns the public key itself, making PublicKey an Encryptor.
func (pk *PublicKey) Key() *PublicKey { return pk }

// EncryptWithPower assembles E(m) = (1+N)^m * rn mod N^{s+1} from a nonce
// power rn = r^{N^s} mod N^{s+1}. Every encryption ends here; rn comes
// from one of zmath's nonce producers (or, in EncryptWithNonce, from the
// caller's r).
func (pk *PublicKey) EncryptWithPower(m, rn *big.Int) (*Ciphertext, error) {
	mm, err := pk.validateMessage(m)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{C: pk.mulNS1(pk.expOnePlusN(mm), rn)}, nil
}

// DecryptInnerBatch strips the outer DJ layer from every ciphertext.
// Errors carry the failing index.
func (sk *PrivateKey) DecryptInnerBatch(cts []*Ciphertext) ([]*paillier.Ciphertext, error) {
	return parallel.MapErrCtx(context.Background(), cts, func(i int, c *Ciphertext) (*paillier.Ciphertext, error) {
		inner, err := sk.DecryptInner(c)
		if err != nil {
			return nil, fmt.Errorf("dj: DecryptInnerBatch[%d]: %w", i, err)
		}
		return inner, nil
	})
}
