//go:build math_big_pure_go

package zmath

import "math/big"

// Under the math_big_pure_go tag math/big pushes no linkname for its
// vector rows, so there is no kernel to link and every Modulus takes the
// big.Int fallback.
const kernelLinked = false

func (m *Modulus) montMul(z, x, y []big.Word, s *montScratch) {
	panic("zmath: Montgomery kernel called in a math_big_pure_go build")
}
