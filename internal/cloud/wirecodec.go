package cloud

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
)

// The S1↔S2 message encoding is built from five primitives, each with
// exactly one valid byte form so that a message has exactly one encoding:
//
//	count, index   minimal uvarint
//	string, bytes  uvarint(len) then the bytes
//	integer        uvarint(len) then big-endian magnitude, no leading zero
//	               byte (zero is the empty magnitude); never nil or negative
//	integer list   uvarint(count); if not zero, uvarint(width ≥ 1) then
//	               each magnitude big-endian at that width, the width being
//	               the widest one's
//	list           uvarint(count) then the elements
//
// wireWriter appends them and wireReader takes them apart. Both carry a
// sticky error, so a message's Marshal/Unmarshal is the list of its fields
// and one final check.

type wireWriter struct {
	b   []byte
	err error
}

func (w *wireWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("cloud: encoding "+format, args...)
	}
}

func (w *wireWriter) finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

func (w *wireWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// int appends a count or index; a negative one has no encoding.
func (w *wireWriter) int(what string, v int) {
	if v < 0 {
		w.fail("%s: negative value %d", what, v)
		return
	}
	w.uvarint(uint64(v))
}

func (w *wireWriter) ints(what string, vs []int) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.int(what, v)
	}
}

func (w *wireWriter) string(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *wireWriter) bytes(p []byte) {
	w.uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

// big appends one integer, length-prefixed.
func (w *wireWriter) big(what string, v *big.Int) {
	if v == nil || v.Sign() < 0 {
		w.fail("%s: nil or negative integer", what)
		return
	}
	n := (v.BitLen() + 7) / 8
	w.uvarint(uint64(n))
	w.b = slices.Grow(w.b, n)[:len(w.b)+n]
	v.FillBytes(w.b[len(w.b)-n:])
}

// bigs appends an integer list: the count and, unless it is zero, the
// width in bytes of the widest integer (at least 1), then every integer
// at that width. The ciphertexts of one list share a modulus, so the
// width is theirs and the list costs its count times that, plus the two
// prefixes.
func (w *wireWriter) bigs(what string, vs []*big.Int) {
	w.uvarint(uint64(len(vs)))
	if len(vs) == 0 {
		return
	}
	width := 1
	for i, v := range vs {
		if v == nil || v.Sign() < 0 {
			w.fail("%s[%d]: nil or negative integer", what, i)
			return
		}
		width = max(width, (v.BitLen()+7)/8)
	}
	w.uvarint(uint64(width))
	at := len(w.b)
	w.b = slices.Grow(w.b, len(vs)*width)[:at+len(vs)*width]
	for i, v := range vs {
		v.FillBytes(w.b[at+i*width : at+(i+1)*width])
	}
}

// bools appends a bitset, least significant bit first, zero-padded.
func (w *wireWriter) bools(vs []bool) {
	w.uvarint(uint64(len(vs)))
	at := len(w.b)
	w.b = append(w.b, make([]byte, (len(vs)+7)/8)...)
	for i, v := range vs {
		if v {
			w.b[at+i/8] |= 1 << (i % 8)
		}
	}
}

func (w *wireWriter) rows(rows []WireRow) {
	w.uvarint(uint64(len(rows)))
	for i := range rows {
		w.bigs("EHL", rows[i].EHL)
		w.bigs("Scores", rows[i].Scores)
		w.bigs("Blinds", rows[i].Blinds)
		if w.err != nil {
			w.err = fmt.Errorf("%w (row %d)", w.err, i)
			return
		}
	}
}

// wireReader consumes a message body. Every length and count is checked
// against the bytes still unread before anything is allocated for it, so
// a body makes its decoder allocate in proportion to its own size and not
// to what it claims.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("cloud: "+format, args...)
	}
}

// finish reports the first decoding error, or the bytes left over.
func (r *wireReader) finish() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes after the message", len(r.b))
	}
	return r.err
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	if n != (bits.Len64(v|1)+6)/7 {
		r.fail("varint %d is not in its shortest form", v)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads the length of a list whose elements take at least minBytes
// each.
func (r *wireReader) count(what string, minBytes int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)/minBytes) {
		r.fail("%s: count %d overruns the %d bytes left", what, n, len(r.b))
		return 0
	}
	return int(n)
}

// take returns the next n bytes without copying; n is already bounded.
func (r *wireReader) take(n int) []byte {
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *wireReader) int(what string) int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail("%s: %d does not fit an int", what, v)
		return 0
	}
	return int(v)
}

func (r *wireReader) ints(what string) []int {
	n := r.count(what, 1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.int(what)
	}
	return out
}

func (r *wireReader) string(what string) string {
	return string(r.take(r.count(what, 1)))
}

// bytes copies: the decoded message must not alias the caller's buffer.
func (r *wireReader) bytes(what string) []byte {
	n := r.count(what, 1)
	if n == 0 {
		return nil
	}
	return slices.Clone(r.take(n))
}

func (r *wireReader) big(what string) *big.Int {
	p := r.take(r.count(what, 1))
	if len(p) > 0 && p[0] == 0 {
		r.fail("%s: integer has a leading zero byte", what)
	}
	if r.err != nil {
		return nil
	}
	return new(big.Int).SetBytes(p)
}

func (r *wireReader) bigs(what string) []*big.Int {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	width := r.uvarint()
	if r.err == nil && (width == 0 || n > uint64(len(r.b))/width) {
		r.fail("%s: %d integers of %d bytes overrun the %d bytes left", what, n, width, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	out := make([]*big.Int, n)
	tight := width == 1
	for i := range out {
		p := r.take(int(width))
		tight = tight || p[0] != 0
		out[i] = new(big.Int).SetBytes(p)
	}
	if !tight {
		r.fail("%s: no integer is as wide as the list's %d bytes", what, width)
		return nil
	}
	return out
}

func (r *wireReader) bools(what string) []bool {
	n := r.uvarint()
	if r.err == nil && n > 8*uint64(len(r.b)) {
		r.fail("%s: count %d overruns the %d bytes left", what, n, len(r.b))
	}
	if r.err != nil || n == 0 {
		return nil
	}
	p := r.take(int(n+7) / 8)
	if n%8 != 0 && p[len(p)-1]>>(n%8) != 0 {
		r.fail("%s: padding bits set", what)
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = p[i/8]>>(i%8)&1 == 1
	}
	return out
}

func (r *wireReader) rows() []WireRow {
	n := r.count("Rows", 3) // three list counts at the least
	if n == 0 {
		return nil
	}
	out := make([]WireRow, n)
	for i := range out {
		out[i] = WireRow{EHL: r.bigs("EHL"), Scores: r.bigs("Scores"), Blinds: r.bigs("Blinds")}
		if r.err != nil {
			return nil
		}
	}
	return out
}
