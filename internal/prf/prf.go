// Package prf provides the keyed pseudorandom primitives the paper's
// construction assumes: an HMAC-SHA-256 PRF (used as the "secure keyed
// hash" of the EHL structures), a PRF-to-Z_N digest map for EHL+, and the
// keyed pseudorandom permutation P that Enc applies to the sorted lists
// (Algorithm 2, line 9) and the join token reuses (Section 12.3).
package prf

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sort"
)

// KeySize is the byte length of PRF keys.
const KeySize = 32

// Key is a PRF key.
type Key []byte

// NewKey samples a fresh random PRF key.
func NewKey() (Key, error) {
	k := make(Key, KeySize)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("prf: sampling key: %w", err)
	}
	return k, nil
}

// DeriveKeys derives n independent subkeys from a master key, as the data
// owner does for the EHL keys kappa_1..kappa_s.
func DeriveKeys(master Key, n int) ([]Key, error) {
	if len(master) == 0 {
		return nil, errors.New("prf: empty master key")
	}
	if n <= 0 {
		return nil, fmt.Errorf("prf: key count must be positive, got %d", n)
	}
	out := make([]Key, n)
	var ctr [8]byte
	for i := range out {
		binary.BigEndian.PutUint64(ctr[:], uint64(i))
		mac := hmac.New(sha256.New, master)
		mac.Write([]byte("sectopk-subkey"))
		mac.Write(ctr[:])
		out[i] = mac.Sum(nil)
	}
	return out, nil
}

// Eval computes HMAC-SHA-256(key, data).
func Eval(key Key, data []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(data)
	return mac.Sum(nil)
}

// EvalUint64 evaluates the PRF on the big-endian encoding of v.
func EvalUint64(key Key, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return Eval(key, buf[:])
}

// ToZn maps data into Z_n by expanding the PRF in counter mode to
// bitlen(n)+64 bits and reducing; the result is statistically close to
// uniform. This is the "HMAC(k, o) mod N" digest of EHL+ (Section 5).
func ToZn(key Key, data []byte, n *big.Int) (*big.Int, error) {
	if n == nil || n.Sign() <= 0 {
		return nil, errors.New("prf: ToZn modulus must be positive")
	}
	need := (n.BitLen()+64)/8 + 1
	stream := make([]byte, 0, need)
	var ctr [4]byte
	for block := 0; len(stream) < need; block++ {
		binary.BigEndian.PutUint32(ctr[:], uint32(block))
		mac := hmac.New(sha256.New, key)
		mac.Write(ctr[:])
		mac.Write(data)
		stream = mac.Sum(stream)
	}
	out := new(big.Int).SetBytes(stream[:need])
	return out.Mod(out, n), nil
}

// Perm is a keyed pseudorandom permutation over [0, n): the paper's P_K.
// It is realized by sorting the domain by PRF value, which yields a
// permutation computationally indistinguishable from random under the PRF
// assumption.
type Perm struct {
	n       int
	forward []int // forward[i] = P(i)
	inverse []int // inverse[P(i)] = i
}

// NewPerm builds the permutation P_K over [0, n).
func NewPerm(key Key, n int) (*Perm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("prf: permutation domain must be positive, got %d", n)
	}
	if len(key) == 0 {
		return nil, errors.New("prf: empty permutation key")
	}
	type tagged struct {
		tag []byte
		idx int
	}
	items := make([]tagged, n)
	for i := range items {
		items[i] = tagged{tag: EvalUint64(key, uint64(i)), idx: i}
	}
	sort.Slice(items, func(a, b int) bool {
		c := compareBytes(items[a].tag, items[b].tag)
		if c != 0 {
			return c < 0
		}
		return items[a].idx < items[b].idx
	})
	p := &Perm{n: n, forward: make([]int, n), inverse: make([]int, n)}
	for pos, it := range items {
		p.forward[it.idx] = pos
		p.inverse[pos] = it.idx
	}
	return p, nil
}

func compareBytes(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// Len returns the domain size.
func (p *Perm) Len() int { return p.n }

// Apply returns P(i).
func (p *Perm) Apply(i int) (int, error) {
	if i < 0 || i >= p.n {
		return 0, fmt.Errorf("prf: permutation index %d out of [0, %d)", i, p.n)
	}
	return p.forward[i], nil
}

// Invert returns P^{-1}(j).
func (p *Perm) Invert(j int) (int, error) {
	if j < 0 || j >= p.n {
		return 0, fmt.Errorf("prf: permutation index %d out of [0, %d)", j, p.n)
	}
	return p.inverse[j], nil
}

// RandomPerm samples a uniformly random permutation of [0, n) using
// crypto/rand (Fisher-Yates). The servers use it for the ephemeral
// permutations pi inside the sub-protocols.
func RandomPerm(n int) ([]int, error) {
	if n < 0 {
		return nil, fmt.Errorf("prf: negative permutation size %d", n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		jBig, err := rand.Int(rand.Reader, big.NewInt(int64(i+1)))
		if err != nil {
			return nil, err
		}
		j := int(jBig.Int64())
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}

// InvertPerm returns the inverse of a permutation given as a slice.
func InvertPerm(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}
