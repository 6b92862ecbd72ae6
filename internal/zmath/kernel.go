//go:build !math_big_pure_go

package zmath

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

// The engine's one multiplication kernel runs on math/big's own assembly
// vector rows. Both symbols carry a push //go:linkname in
// math/big/arith_decl.go, kept for the packages that reach them this way
// (go.dev/issue/67401), so the linker accepts the reference. A
// math_big_pure_go build has no such push and links kernel_pure.go instead.
// This is the only file in the module that may hold a linkname (a CI gate).

//go:linkname addMulVVW math/big.addMulVVW
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)

//go:linkname subVV math/big.subVV
func subVV(z, x, y []big.Word) (c big.Word)

// kernelLinked reports that montMul has its rows, so NewModulus may hand
// out the limb engine.
const kernelLinked = true

// montMul runs one Montgomery multiply z = x*y*R^{-1} mod n on reduced
// k-limb vectors. It is math/big's nat.montgomery row loop: per limb of y,
// one assembly row adds x*y[i] and one adds n*q, where q clears the low
// word; c carries the bit above the window. Unlike math/big's, the result
// is fully reduced, so every chain exits the domain with a canonical
// residue. z may alias x or y; s.t holds the 2k-limb accumulator.
func (m *Modulus) montMul(z, x, y []big.Word, s *montScratch) {
	k, n := m.k, m.nl
	t := s.t[:2*k]
	clear(t)
	var c big.Word
	for i := 0; i < k; i++ {
		c2 := addMulVVW(t[i:i+k], x, y[i])
		c3 := addMulVVW(t[i:i+k], n, t[i]*m.n0inv)
		cx := c + c2
		cy := cx + c3
		t[i+k] = cy
		c = 0
		if cx < c2 || cy < c3 {
			c = 1
		}
	}
	// The value is c*R + t[k:], below 2n for reduced inputs.
	if c != 0 || !limbsLess(t[k:], n) {
		subVV(z, t[k:], n)
	} else {
		copy(z, t[k:])
	}
}

// limbsLess reports a < b for equal-length limb vectors.
func limbsLess(a, b []big.Word) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
