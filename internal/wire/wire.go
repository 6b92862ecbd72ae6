// Package wire is the one byte codec of the system: every S1↔S2 message,
// every client and cluster frame and every secio stream is written with
// a Writer and read with a Reader. It is built from six primitives, each
// with exactly one valid byte form, so that a message has exactly one
// encoding:
//
//	count, index   minimal uvarint
//	signed         minimal uvarint of the zigzag form (v<<1 ^ v>>63)
//	string, bytes  uvarint(len) then the bytes
//	integer        uvarint(len) then big-endian magnitude, no leading zero
//	               byte (zero is the empty magnitude); never nil or negative
//	integer list   uvarint(count); if not zero, uvarint(width ≥ 1) then
//	               each magnitude big-endian at that width, the width being
//	               the widest one's
//	list           uvarint(count) then the elements
//
// Both sides carry a sticky error, so a message's Marshal/Unmarshal is the
// list of its fields and one final check. A Reader checks every length and
// count against the bytes still unread before it allocates anything, so a
// body makes its decoder allocate in proportion to its own size and not to
// what it claims, and every Reader failure is secerr.CodeBadRequest.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"

	"repro/internal/secerr"
)

// Writer appends primitives to a message body.
type Writer struct {
	b   []byte
	err error
}

// Fail records the writer's first error.
func (w *Writer) Fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// Finish returns the body, or the first encoding error.
func (w *Writer) Finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

func (w *Writer) Uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// Int appends a count or index; a negative one has no encoding.
func (w *Writer) Int(what string, v int) {
	if v < 0 {
		w.Fail("wire: encoding %s: negative value %d", what, v)
		return
	}
	w.Uvarint(uint64(v))
}

func (w *Writer) Ints(what string, vs []int) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Int(what, v)
	}
}

// Varint appends a signed integer.
func (w *Writer) Varint(v int64) { w.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (w *Writer) Varints(vs []int64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Varint(v)
	}
}

func (w *Writer) Bool(v bool) {
	if v {
		w.Uvarint(1)
	} else {
		w.Uvarint(0)
	}
}

func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

// Big appends one integer, length-prefixed.
func (w *Writer) Big(what string, v *big.Int) {
	if v == nil || v.Sign() < 0 {
		w.Fail("wire: encoding %s: nil or negative integer", what)
		return
	}
	n := (v.BitLen() + 7) / 8
	w.Uvarint(uint64(n))
	w.b = slices.Grow(w.b, n)[:len(w.b)+n]
	v.FillBytes(w.b[len(w.b)-n:])
}

// Bigs appends an integer list: the count and, unless it is zero, the
// width in bytes of the widest integer (at least 1), then every integer
// at that width. The ciphertexts of one list share a modulus, so the
// width is theirs and the list costs its count times that, plus the two
// prefixes.
func (w *Writer) Bigs(what string, vs []*big.Int) {
	w.Uvarint(uint64(len(vs)))
	if len(vs) == 0 {
		return
	}
	width := 1
	for i, v := range vs {
		if v == nil || v.Sign() < 0 {
			w.Fail("wire: encoding %s[%d]: nil or negative integer", what, i)
			return
		}
		width = max(width, (v.BitLen()+7)/8)
	}
	w.Uvarint(uint64(width))
	at := len(w.b)
	w.b = slices.Grow(w.b, len(vs)*width)[:at+len(vs)*width]
	for i, v := range vs {
		v.FillBytes(w.b[at+i*width : at+(i+1)*width])
	}
}

// Bools appends a bitset, least significant bit first, zero-padded.
func (w *Writer) Bools(vs []bool) {
	w.Uvarint(uint64(len(vs)))
	at := len(w.b)
	w.b = append(w.b, make([]byte, (len(vs)+7)/8)...)
	for i, v := range vs {
		if v {
			w.b[at+i/8] |= 1 << (i % 8)
		}
	}
}

// Empty is the message with no fields, for a Hello request or reply with
// nothing to carry: it encodes to no bytes, and any byte is refused.
type Empty struct{}

func (Empty) MarshalBinary() ([]byte, error) { return nil, nil }

func (*Empty) UnmarshalBinary(b []byte) error { return NewReader(b).Finish() }

// Reader consumes a message body.
type Reader struct {
	b        []byte
	err      error
	maxWidth int
}

// NewReader reads b. The decoded values never alias it.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Fail records the reader's first error, typed bad_request.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = secerr.New(secerr.CodeBadRequest, format, args...)
	}
}

// Err reports the first decoding error so far.
func (r *Reader) Err() error { return r.err }

// Finish reports the first decoding error, or the bytes left over.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) > 0 {
		r.Fail("wire: %d trailing bytes after the message", len(r.b))
	}
	return r.err
}

// LimitWidth refuses, from here on, any integer wider than n bytes: a
// stream that has declared its modulus caps its ciphertexts by it.
func (r *Reader) LimitWidth(n int) { r.maxWidth = n }

func (r *Reader) width(what string, n uint64) {
	if r.maxWidth > 0 && n > uint64(r.maxWidth) {
		r.Fail("wire: %s: %d-byte integer is wider than the declared %d", what, n, r.maxWidth)
	}
}

func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("wire: truncated or overlong varint")
		return 0
	}
	if n != (bits.Len64(v|1)+6)/7 {
		r.Fail("wire: varint %d is not in its shortest form", v)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads the length of a list whose elements take at least minBytes
// each.
func (r *Reader) Count(what string, minBytes int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.b)/minBytes) {
		r.Fail("wire: %s: count %d overruns the %d bytes left", what, n, len(r.b))
		return 0
	}
	return int(n)
}

// take returns the next n bytes without copying; n is already bounded.
func (r *Reader) take(n int) []byte {
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *Reader) Int(what string) int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Fail("wire: %s: %d does not fit an int", what, v)
		return 0
	}
	return int(v)
}

func (r *Reader) Ints(what string) []int {
	n := r.Count(what, 1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int(what)
	}
	return out
}

func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *Reader) Varints(what string) []int64 {
	n := r.Count(what, 1)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Varint()
	}
	return out
}

func (r *Reader) Bool(what string) bool {
	v := r.Uvarint()
	if v > 1 {
		r.Fail("wire: %s: %d is not a boolean", what, v)
	}
	return v == 1
}

func (r *Reader) String(what string) string {
	return string(r.take(r.Count(what, 1)))
}

// Bytes copies: the decoded message must not alias the caller's buffer.
func (r *Reader) Bytes(what string) []byte {
	n := r.Count(what, 1)
	if n == 0 {
		return nil
	}
	return slices.Clone(r.take(n))
}

func (r *Reader) Big(what string) *big.Int {
	p := r.take(r.Count(what, 1))
	if len(p) > 0 && p[0] == 0 {
		r.Fail("wire: %s: integer has a leading zero byte", what)
	}
	r.width(what, uint64(len(p)))
	if r.err != nil {
		return nil
	}
	return new(big.Int).SetBytes(p)
}

func (r *Reader) Bigs(what string) []*big.Int {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	width := r.Uvarint()
	if r.err == nil && (width == 0 || n > uint64(len(r.b))/width) {
		r.Fail("wire: %s: %d integers of %d bytes overrun the %d bytes left", what, n, width, len(r.b))
	}
	r.width(what, width)
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
		r.Fail("wire: %s: no integer is as wide as the list's %d bytes", what, width)
		return nil
	}
	return out
}

func (r *Reader) Bools(what string) []bool {
	n := r.Uvarint()
	if r.err == nil && n > 8*uint64(len(r.b)) {
		r.Fail("wire: %s: count %d overruns the %d bytes left", what, n, len(r.b))
	}
	if r.err != nil || n == 0 {
		return nil
	}
	p := r.take(int(n+7) / 8)
	if n%8 != 0 && p[len(p)-1]>>(n%8) != 0 {
		r.Fail("wire: %s: padding bits set", what)
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = p[i/8]>>(i%8)&1 == 1
	}
	return out
}
