package zmath

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/parallel"
)

// nonceGroup is a toy key of the Paillier family at degree s, built from
// the primes alone so the tests below depend on no scheme package.
type nonceGroup struct {
	p, q, n, ns, ns1, phi *big.Int
	crt                   *CRTNonce
}

func newNonceGroup(t *testing.T, s int) nonceGroup {
	t.Helper()
	p, err := rand.Prime(rand.Reader, 96)
	if err != nil {
		t.Fatal(err)
	}
	q, err := rand.Prime(rand.Reader, 96)
	if err != nil {
		t.Fatal(err)
	}
	e, e1 := big.NewInt(int64(s)), big.NewInt(int64(s+1))
	g := nonceGroup{p: p, q: q, n: new(big.Int).Mul(p, q)}
	g.ns, g.ns1 = new(big.Int).Exp(g.n, e, nil), new(big.Int).Exp(g.n, e1, nil)
	g.phi = new(big.Int).Mul(new(big.Int).Sub(p, One), new(big.Int).Sub(q, One))
	ps1, qs1 := new(big.Int).Exp(p, e1, nil), new(big.Int).Exp(q, e1, nil)
	inv, err := ModInverse(ps1, qs1)
	if err != nil {
		t.Fatal(err)
	}
	g.crt = NewCRTNonce(p, q, inv, s)
	return g
}

// checkResidue fails unless x is a unit of order dividing phi(N): an
// N^s-th residue mod N^(s+1), the set the spec path draws from.
func (g nonceGroup) checkResidue(t *testing.T, x *big.Int) {
	t.Helper()
	if x.Sign() <= 0 || x.Cmp(g.ns1) >= 0 || new(big.Int).GCD(nil, nil, x, g.ns1).Cmp(One) != 0 {
		t.Fatalf("nonce power %v is not a unit mod N^(s+1)", x)
	}
	if new(big.Int).Exp(x, g.phi, g.ns1).Cmp(One) != 0 {
		t.Fatalf("nonce power %v is not an N^s-th residue", x)
	}
}

// TestNonceProducers is the one table over the degree: for Paillier
// (s = 1) and Damgård–Jurik's outer layer (s = 2) the CRT split equals
// the spec power bit for bit on fixed r, and every producer — spec, CRT,
// each of them pooled, a closed pool — yields N^s-th residues and never
// the same one twice.
func TestNonceProducers(t *testing.T) {
	for s := 1; s <= 2; s++ {
		t.Run(fmt.Sprintf("s=%d", s), func(t *testing.T) {
			g := newNonceGroup(t, s)
			for i := 0; i < 20; i++ {
				r, err := RandUnit(rand.Reader, g.n)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := g.crt.PowerOf(r), new(big.Int).Exp(r, g.ns, g.ns1); got.Cmp(want) != 0 {
					t.Fatalf("CRT split of r=%v is %v, spec power %v", r, got, want)
				}
			}

			producers := map[string]func() (*big.Int, error){
				"spec": func() (*big.Int, error) { return SpecNoncePower(g.n, g.ns, g.ns1) },
				"crt":  g.crt.NoncePower,
			}
			for _, name := range []string{"spec", "crt"} {
				pool := parallel.NewPool(2, 4, producers[name])
				defer pool.Close()
				producers["pooled-"+name] = pool.Next
			}
			closed := parallel.NewPool(1, 2, g.crt.NoncePower)
			closed.Close()
			producers["closed-pool"] = closed.Next

			for name, next := range producers {
				t.Run(name, func(t *testing.T) {
					seen := map[string]bool{}
					for i := 0; i < 12; i++ { // more than a pool holds: buffer and inline fallback
						x, err := next()
						if err != nil {
							t.Fatal(err)
						}
						g.checkResidue(t, x)
						if seen[x.String()] {
							t.Fatal("the same nonce power came out twice")
						}
						seen[x.String()] = true
					}
				})
			}
		})
	}
}
