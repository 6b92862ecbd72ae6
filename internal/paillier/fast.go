package paillier

import (
	"math/big"

	"repro/internal/zmath"
)

// NonceSource produces the nonce powers r^N mod N^2 that dominate
// Paillier encryption. PublicKey computes them with a full-width
// variable-base exponentiation (the spec path); a NonceEncryptor draws
// them from the key holder's CRT sampler, the opt-in fast-nonce table or
// a background pool over any NonceSource. The producers themselves are
// zmath's (nonce.go), shared with the Damgård–Jurik layer.
type NonceSource interface {
	Key() *PublicKey
	NoncePower() (*big.Int, error)
}

// NoncePower samples a fresh r in Z*_N and returns r^N mod N^2 — the spec
// path, one full-width exponentiation per nonce.
func (pk *PublicKey) NoncePower() (*big.Int, error) {
	return zmath.SpecNoncePower(pk.N, pk.N, pk.N2)
}

// NonceEncryptor is every Paillier encryption surface other than the
// bare PublicKey: the key plus one of zmath's nonce producers.
type NonceEncryptor = zmath.NonceEncryptor[*PublicKey, *Ciphertext]

// CRTEncryptor returns the key holder's encryption surface: nonce powers
// from zmath.CRTNonce, the spec path's exact distribution at a fraction
// of its cost.
func (sk *PrivateKey) CRTEncryptor() *NonceEncryptor {
	return zmath.NewNonceEncryptor(&sk.PublicKey, sk.crtNonce().NoncePower)
}

// crtNonce is the CRT sampler over this key's factors, at s = 1.
func (sk *PrivateKey) crtNonce() *zmath.CRTNonce {
	return zmath.NewCRTNonce(sk.P, sk.Q, sk.p2InvModQ2, 1)
}

// NewFastEncryptor precomputes pk's fast-nonce table (zmath.FastNonce:
// short exponents, an extra assumption on top of DCR, hence opt-in).
func NewFastEncryptor(pk *PublicKey) (*NonceEncryptor, error) {
	fast, err := zmath.NewFastNonce(pk.N, pk.N, pk.N2, pk.engN2)
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
