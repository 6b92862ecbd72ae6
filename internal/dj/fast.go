package dj

import (
	"math/big"

	"repro/internal/zmath"
)

// NonceSource produces the nonce powers r^{N^s} mod N^{s+1} that dominate
// DJ encryption, as paillier.NonceSource does at s = 1: PublicKey is the
// spec path, a NonceEncryptor draws from the CRT sampler, the fast-nonce
// table or a pool. The producers are zmath's (nonce.go), taken at this
// key's degree s.
type NonceSource interface {
	Key() *PublicKey
	NoncePower() (*big.Int, error)
}

// Key returns the public key itself, making PublicKey a NonceSource.
func (pk *PublicKey) Key() *PublicKey { return pk }

// NoncePower samples a fresh r in Z*_N and returns r^{N^s} mod N^{s+1} —
// the spec path, one full-width exponentiation per nonce.
func (pk *PublicKey) NoncePower() (*big.Int, error) {
	return zmath.SpecNoncePower(pk.N, pk.NS, pk.NS1)
}

// NonceEncryptor is every DJ encryption surface other than the bare
// PublicKey: the key plus one of zmath's nonce producers.
type NonceEncryptor = zmath.NonceEncryptor[*PublicKey, *Ciphertext]

// CRTEncryptor returns the key holder's encryption surface: nonce powers
// from zmath.CRTNonce, the spec path's exact distribution at a fraction
// of its cost.
func (sk *PrivateKey) CRTEncryptor() *NonceEncryptor {
	return zmath.NewNonceEncryptor(&sk.PublicKey, sk.crtNonce().NoncePower)
}

// crtNonce is the CRT sampler over this key's factors, at the key's degree.
func (sk *PrivateKey) crtNonce() *zmath.CRTNonce {
	return zmath.NewCRTNonce(sk.halfP.pow[1], sk.halfQ.pow[1], sk.ps1InvModQs1, sk.S)
}

// NewFastEncryptor precomputes pk's fast-nonce table (zmath.FastNonce:
// short exponents, an extra assumption on top of DCR, hence opt-in).
func NewFastEncryptor(pk *PublicKey) (*NonceEncryptor, error) {
	fast, err := zmath.NewFastNonce(pk.N, pk.NS, pk.NS1, pk.engNS1)
	if err != nil {
		return nil, err
	}
	return zmath.NewNonceEncryptor(pk, fast.NoncePower), nil
}

// NewNoncePool buffers up to capacity of src's nonce powers on workers
// background goroutines (a drained pool computes inline). Close must be
// called to release them.
func NewNoncePool(src NonceSource, workers, capacity int) *NonceEncryptor {
	return zmath.NewPooledEncryptor(src.Key(), src.NoncePower, workers, capacity)
}
