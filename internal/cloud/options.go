package cloud

import (
	"runtime"

	"repro/internal/dj"
	"repro/internal/paillier"
	"repro/internal/zmath"
)

// Option configures a Server or Client at construction time. Both parties
// share one option vocabulary so deployments tune them uniformly.
type Option func(*config)

type config struct {
	fastNonce bool
	relation  string
}

// WithRelation sets the relation ID a Client stamps on every request, so
// a multi-relation crypto cloud (Service) can route it to the right key
// material. Single-relation deployments may leave it empty. Servers
// ignore the option.
func WithRelation(id string) Option {
	return func(c *config) { c.relation = id }
}

// WithFastNonce toggles the short-exponent fixed-base nonce path
// (zmath.FastNonce) for every encryption surface the party owns. Off by
// default: the fast path rests on the standard short-exponent/subgroup
// indistinguishability assumption on top of DCR, so it is strictly opt-in
// (see DESIGN.md "Precomputation fast paths"). When enabled it takes
// precedence over the CRT path — it is faster, and applies even to
// surfaces without the private key.
func WithFastNonce(on bool) Option {
	return func(c *config) { c.fastNonce = on }
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// poolsEnabled reports whether background nonce pools should run; it is
// read when a surface is built. Pools are off at GOMAXPROCS 1: the serial
// path stays a plain loop, and on one core background precompute can only
// steal cycles from the foreground rounds it is meant to feed.
func poolsEnabled() bool { return runtime.GOMAXPROCS(0) > 1 }

// poolWorkers sizes a pool's background filler count, scaled to (but not
// deducted from) the GOMAXPROCS foreground worker budget and capped low so
// precompute never starves foreground rounds.
func poolWorkers() int {
	w := runtime.GOMAXPROCS(0) / 2
	if w < 1 {
		w = 1
	}
	if w > 4 {
		w = 4
	}
	return w
}

// poolCapacity bounds how far ahead the fillers may run.
const poolCapacity = 128

// newEnc builds one encryption surface of either scheme. Precedence:
// fast-nonce table (opt-in) > CRT sampler (crt is non-nil whenever the
// party holds the private key: it is assumption-free, bit-compatible with
// the spec path and ~2-3x cheaper per nonce) > spec path; a background
// pool buffers whichever was picked when pooling is enabled. The caller
// owes the surface a Close.
func newEnc[K zmath.NonceKey[C], C any](c config, pk K, crt func() *zmath.NonceEncryptor[K, C], fast func(K) (*zmath.NonceEncryptor[K, C], error)) (*zmath.NonceEncryptor[K, C], error) {
	enc := zmath.NewNonceEncryptor(pk, pk.NoncePower)
	switch {
	case c.fastNonce:
		var err error
		if enc, err = fast(pk); err != nil {
			return nil, err
		}
	case crt != nil:
		enc = crt()
	}
	if poolsEnabled() {
		enc = zmath.NewPooledEncryptor(pk, enc.NoncePower, poolWorkers(), poolCapacity)
	}
	return enc, nil
}

// newPaillierEnc returns the encryption surface for pk under this config.
// sk may be nil (the party does not hold the private key).
func (c config) newPaillierEnc(pk *paillier.PublicKey, sk *paillier.PrivateKey) (*paillier.NonceEncryptor, error) {
	var crt func() *paillier.NonceEncryptor
	if sk != nil {
		crt = sk.CRTEncryptor
	}
	return newEnc(c, pk, crt, paillier.NewFastEncryptor)
}

// newDJEnc is newPaillierEnc for the Damgård-Jurik layer.
func (c config) newDJEnc(pk *dj.PublicKey, sk *dj.PrivateKey) (*dj.NonceEncryptor, error) {
	var crt func() *dj.NonceEncryptor
	if sk != nil {
		crt = sk.CRTEncryptor
	}
	return newEnc(c, pk, crt, dj.NewFastEncryptor)
}
