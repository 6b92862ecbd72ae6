package cloud

import (
	"runtime"

	"repro/internal/paillier"
)

// Option configures a Client at construction time. WithRelation is the
// only one: a Server has nothing to configure, since its encryption
// surface follows from the key it holds.
type Option func(*config)

type config struct {
	relation string
}

// WithRelation sets the relation ID a Client stamps on every request, so
// a multi-relation crypto cloud (Service) can route it to the right key
// material. Single-relation deployments may leave it empty.
func WithRelation(id string) Option {
	return func(c *config) { c.relation = id }
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

// newEnc builds one Paillier encryption surface over src's nonce powers,
// behind a background pool when pooling is enabled. Every party builds
// every surface this way, whether or not it holds the key's factors: the
// key's fixed-base table (zmath.NonceBase) is the one producer. The
// caller owes the surface a Close.
func newEnc(src paillier.NonceSource) *paillier.NonceEncryptor {
	if poolsEnabled() {
		return paillier.NewNoncePool(src, poolWorkers(), poolCapacity)
	}
	return paillier.NewNonceEncryptor(src.Key(), src.NoncePower)
}
