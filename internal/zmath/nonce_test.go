package zmath

import (
	"crypto/rand"
	"fmt"
	"math"
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

// TestNonceProducers is the one table over the producers: for Paillier
// (s = 1) and Damgård–Jurik's outer layer (s = 2) the CRT split equals
// the spec power bit for bit on fixed r, and every producer — spec, CRT,
// at s = 1 the fixed base every Paillier party draws from, each of them
// pooled, a closed pool — yields N^s-th residues and never the same one
// twice.
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
			if s == 1 {
				base, err := NewNonceBase(g.n, MustModulus(g.ns1))
				if err != nil {
					t.Fatal(err)
				}
				producers["base"] = base.NoncePower
			}
			names := []string{"spec", "crt"}
			if s == 1 {
				names = append(names, "base")
			}
			for _, name := range names {
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

// TestNonceBaseMatchesExp pins the table's arithmetic, on the kernel and
// on the fallback, at one limb and at several: power(x, neg) is
// ±Exp(y^N, x) mod N² bit for bit, for random exponents and for the
// extremes (zero, every digit full, a single top bit).
func TestNonceBaseMatchesExp(t *testing.T) {
	for _, bits := range []int{22, 128, 256, 1024} {
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			t.Fatal(err)
		}
		// Two 11-bit primes are equal about once in 67 draws, and
		// NewNonceBase rightly refuses p², so q is drawn until it differs.
		q := p
		for q.Cmp(p) == 0 {
			if q, err = rand.Prime(rand.Reader, bits-bits/2); err != nil {
				t.Fatal(err)
			}
		}
		n := new(big.Int).Mul(p, q)
		n2 := new(big.Int).Mul(n, n)
		for _, path := range []struct {
			name string
			m    *Modulus
		}{{"kernel", MustModulus(n2)}, {"fallback", &Modulus{n: n2, fallback: true}}} {
			t.Run(fmt.Sprintf("%d-bit/%s", bits, path.name), func(t *testing.T) {
				b, err := NewNonceBase(n, path.m)
				if err != nil {
					t.Fatal(err)
				}
				h := new(big.Int).Exp(b.Base(), n, n2)
				top := new(big.Int).Lsh(One, uint(b.xBits))
				xs := []*big.Int{new(big.Int), One, new(big.Int).Sub(top, One), new(big.Int).Rsh(top, 1)}
				for i := 0; i < 8; i++ {
					x, err := RandInt(rand.Reader, top)
					if err != nil {
						t.Fatal(err)
					}
					xs = append(xs, x)
				}
				for i, x := range xs {
					want := new(big.Int).Exp(h, x, n2)
					if got := b.power(x, false); got.Cmp(want) != 0 {
						t.Fatalf("H^x for exponent %d (%d bits) is %v, want %v", i, x.BitLen(), got, want)
					}
					want.Sub(n2, want)
					if got := b.power(x, true); got.Cmp(want) != 0 {
						t.Fatalf("-H^x for exponent %d is %v, want %v", i, got, want)
					}
				}
			})
		}
	}
}

// toyNonceBase builds a producer over the toy modulus p·q with the given
// base and exponent width, two of the knobs the χ² test's controls turn.
func toyNonceBase(p, q int64, y *big.Int, xBits int) *NonceBase {
	n := big.NewInt(p * q)
	return newNonceBase(n, y, MustModulus(new(big.Int).Mul(n, n)), xBits)
}

// nonceChiSquare draws perCell·φ(N) nonce powers from next over the toy
// modulus p·q and returns the χ² statistic of their counts over the φ(N)
// N-th residues mod N², with its degrees of freedom. A draw that is no
// N-th residue fails the test outright. r ↦ r^N mod N² is a bijection
// from Z*_N onto the N-th residues (gcd(N, φ(N)) = 1), and so is the
// reduction mod N, so a residue's cell is its value mod N.
func nonceChiSquare(t *testing.T, p, q int64, perCell int, next func() (*big.Int, error)) (chi2 float64, df int) {
	t.Helper()
	n := big.NewInt(p * q)
	n2 := new(big.Int).Mul(n, n)
	phi := big.NewInt((p - 1) * (q - 1))
	cells := int(phi.Int64())
	counts := map[int64]int{}
	draws := perCell * cells
	for i := 0; i < draws; i++ {
		x, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if new(big.Int).Exp(x, phi, n2).Cmp(One) != 0 {
			t.Fatalf("draw %v is not an N-th residue mod N²", x)
		}
		counts[new(big.Int).Mod(x, n).Int64()]++
	}
	want := float64(perCell)
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	chi2 += float64(cells-len(counts)) * want // the cells no draw hit
	return chi2, cells - 1
}

// chiSquareBound is the rejection threshold: six standard deviations
// above the χ² mean, df + 6·sqrt(2·df).
func chiSquareBound(df int) float64 {
	return float64(df) + 6*math.Sqrt(2*float64(df))
}

// TestNonceBaseUniformOnToyModulus draws 40·φ(N) nonce powers at the toy
// safe-prime modulus N = 23·59 (φ = 1276) and holds their counts over
// every N-th residue to a χ² test: the producer's distribution is the
// spec path's, the uniform one. The derived base is checked to have the
// full order λ first, as a key holder would check it. The named ways of
// getting it wrong each fail the same test (see the controls below).
func TestNonceBaseUniformOnToyModulus(t *testing.T) {
	const p, q = 23, 59
	n := big.NewInt(p * q)
	b, err := NewNonceBase(n, MustModulus(new(big.Int).Mul(n, n)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []int64{q - 1, p - 1} { // λ/p' = 2q', λ/q' = 2p'
		if new(big.Int).Exp(b.Base(), big.NewInt(e), n).Cmp(One) == 0 {
			t.Fatalf("derived base %v has order below λ", b.Base())
		}
	}
	chi2, df := nonceChiSquare(t, p, q, 40, b.NoncePower)
	if bound := chiSquareBound(df); chi2 > bound {
		t.Fatalf("χ² = %.0f over %d degrees of freedom, above %.0f: the nonce powers are not uniform", chi2, df, bound)
	}
	t.Logf("χ² = %.0f over %d degrees of freedom", chi2, df)
}

// TestNonceChiSquareCatchesMutations runs the uniformity test's own
// controls: each named deviation from the construction draws from a
// strict subset of the N-th residues (at most half of them), and the
// same χ² bound must refuse it.
func TestNonceChiSquareCatchesMutations(t *testing.T) {
	const p, q = 23, 59
	n := big.NewInt(p * q)
	yMinus, err := deriveNonceBase(n)
	if err != nil {
		t.Fatal(err)
	}
	// A Jacobi +1 base: the square of the real one.
	yPlus := new(big.Int).Mul(yMinus, yMinus)
	yPlus.Mod(yPlus, n)
	// Non-safe primes: gcd(28, 36) = 4, so λ = 252 and ±<y> covers at
	// most 504 of the 1008 residues.
	nonSafe := toyNonceBase(29, 37, mustDerive(t, big.NewInt(29*37)), 11+nonceSlackBits)
	// A deficient base: 23·47's derived base has order below λ, the case
	// a key holder's order check turns away.
	deficient := toyNonceBase(23, 47, mustDerive(t, big.NewInt(23*47)), 11+nonceSlackBits)

	unsigned := toyNonceBase(p, q, yMinus, 11+nonceSlackBits)
	cases := []struct {
		name string
		p, q int64
		next func() (*big.Int, error)
	}{
		{"jacobi+1 base", p, q, toyNonceBase(p, q, yPlus, 11+nonceSlackBits).NoncePower},
		{"sign dropped", p, q, func() (*big.Int, error) {
			x, err := RandInt(rand.Reader, new(big.Int).Lsh(One, uint(unsigned.xBits)))
			if err != nil {
				return nil, err
			}
			return unsigned.power(x, false), nil
		}},
		{"non-safe primes", 29, 37, nonSafe.NoncePower},
		{"short exponent", p, q, toyNonceBase(p, q, yMinus, 8).NoncePower},
		{"base of low order", 23, 47, deficient.NoncePower},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			chi2, df := nonceChiSquare(t, c.p, c.q, 40, c.next)
			if bound := chiSquareBound(df); chi2 <= bound {
				t.Fatalf("χ² = %.0f over %d degrees of freedom is within %.0f: the test cannot see this deviation", chi2, df, bound)
			}
		})
	}
}

func mustDerive(t *testing.T, n *big.Int) *big.Int {
	t.Helper()
	y, err := deriveNonceBase(n)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

// TestNonceBaseRefusesNonRSAModuli: a modulus that cannot be a product of
// two distinct primes is refused when its producer is derived, after a
// bounded number of hashes: a square (no element has Jacobi symbol -1),
// a prime, an even number.
func TestNonceBaseRefusesNonRSAModuli(t *testing.T) {
	p, err := rand.Prime(rand.Reader, 160)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*big.Int{
		"square": new(big.Int).Mul(p, p),
		"prime":  p,
		"even":   new(big.Int).Lsh(p, 1),
		"three":  big.NewInt(3),
	} {
		t.Run(name, func(t *testing.T) {
			if n.Bit(0) == 1 {
				if _, err := NewNonceBase(n, MustModulus(new(big.Int).Mul(n, n))); err == nil {
					t.Fatal("modulus accepted")
				}
			}
			if _, err := deriveNonceBase(n); err == nil {
				t.Fatal("modulus accepted")
			}
		})
	}
}

// TestSafePrime: SafePrime returns safe primes of exactly the asked width
// with both top bits set, and CheckSafePrime tells them from primes that
// are not safe.
func TestSafePrime(t *testing.T) {
	for _, bits := range []int{8, 64, 128, 160} {
		for i := 0; i < 3; i++ {
			p, err := SafePrime(rand.Reader, bits)
			if err != nil {
				t.Fatal(err)
			}
			if p.BitLen() != bits || p.Bit(bits-2) != 1 {
				t.Fatalf("%d-bit safe prime %v has %d bits or a clear second bit", bits, p, p.BitLen())
			}
			if err := CheckSafePrime(p); err != nil {
				t.Fatalf("SafePrime returned %v: %v", p, err)
			}
		}
	}
	for _, v := range []int64{2, 3, 5, 13, 29, 37, 1, 0, 15} {
		if CheckSafePrime(big.NewInt(v)) == nil {
			t.Errorf("CheckSafePrime accepts %d", v)
		}
	}
	for _, v := range []int64{7, 11, 23, 47, 59, 83, 107} {
		if err := CheckSafePrime(big.NewInt(v)); err != nil {
			t.Errorf("CheckSafePrime refuses %d: %v", v, err)
		}
	}
}
