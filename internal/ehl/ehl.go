// Package ehl implements EHL+, the encrypted hash list of Section 5: an
// object is mapped through s HMAC PRFs straight into Z_N and the s digests
// are Paillier-encrypted. It supports the randomized equality operator Sub
// (the paper's ⊖, Equation 1): Sub(EHL(x), EHL(y)) is an encryption of 0
// when x = y and of a uniformly random group element otherwise.
//
// The paper's classic H-slot bit-list EHL is not built here: the paper's
// query evaluation runs on EHL+ alone.
package ehl

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/paillier"
	"repro/internal/prf"
	"repro/internal/zmath"
)

// Kind names the structure. EHL+ is the only one; the type stays while
// the benchmark module still names KindPlus.
type Kind int

// KindPlus is EHL+.
const KindPlus Kind = 0

func (k Kind) String() string {
	if k == KindPlus {
		return "EHL+"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Params fixes the structure shape: the number of PRF digests s.
type Params struct {
	Kind Kind
	S    int // number of HMAC keys (s)
}

// DefaultPlusParams is one digest. More buy no accuracy: Sub returns
// Enc(Σ r_i·δ_i) for fresh units r_i, so two distinct objects match with
// probability about 1/N at any s — at s = 1, exactly when their PRF
// digests collide.
func DefaultPlusParams() Params { return Params{Kind: KindPlus, S: 1} }

// Validate checks the parameters are usable.
func (p Params) Validate() error {
	if p.S <= 0 {
		return fmt.Errorf("ehl: s must be positive, got %d", p.S)
	}
	if p.Kind != KindPlus {
		return fmt.Errorf("ehl: unknown kind %d", int(p.Kind))
	}
	return nil
}

// Width returns the number of ciphertexts a list of these parameters
// holds: s.
func (p Params) Width() int { return p.S }

// Hasher holds the secret PRF keys kappa_1..kappa_s and builds lists.
// Only the data owner (and, for the join setting, token holders) has one;
// the servers manipulate Lists without the keys.
type Hasher struct {
	params Params
	keys   []prf.Key
	enc    paillier.Encryptor
}

// NewHasher derives the s subkeys from the master key. Lists are encrypted
// through enc: the owner passes the surface it encrypts scores with (its
// key; S1 a pooled surface over the key).
func NewHasher(master prf.Key, params Params, enc paillier.Encryptor) (*Hasher, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if enc == nil || enc.Key() == nil {
		return nil, errors.New("ehl: nil public key")
	}
	keys, err := prf.DeriveKeys(master, params.S)
	if err != nil {
		return nil, err
	}
	return &Hasher{params: params, keys: keys, enc: enc}, nil
}

// Params returns the structure parameters.
func (h *Hasher) Params() Params { return h.params }

// Encryptor returns the surface lists are encrypted through.
func (h *Hasher) Encryptor() paillier.Encryptor { return h.enc }

// List is an encrypted hash list: Width() Paillier ciphertexts.
type List struct {
	Cts []*paillier.Ciphertext
}

// objectBytes encodes an object id for hashing.
func objectBytes(obj uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], obj)
	return buf[:]
}

// Digests returns the plaintext digest vector for an object: its s Z_N
// values. The client uses this to recognize decrypted result ids.
func (h *Hasher) Digests(obj uint64) ([]*big.Int, error) {
	return h.DigestsBytes(objectBytes(obj))
}

// DigestsBytes is Digests for an arbitrary byte encoding (used by the join
// setting, which hashes attribute values rather than row ids).
func (h *Hasher) DigestsBytes(data []byte) ([]*big.Int, error) {
	out := make([]*big.Int, h.params.S)
	for i := 0; i < h.params.S; i++ {
		d, err := prf.ToZn(h.keys[i], data, h.enc.Key().N)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// Build hashes and encrypts an object id into a fresh List.
func (h *Hasher) Build(obj uint64) (*List, error) {
	return h.BuildBytes(objectBytes(obj))
}

// BuildBytes builds a List over an arbitrary byte encoding.
func (h *Hasher) BuildBytes(data []byte) (*List, error) {
	digests, err := h.DigestsBytes(data)
	if err != nil {
		return nil, err
	}
	cts := make([]*paillier.Ciphertext, len(digests))
	for i, d := range digests {
		ct, err := h.enc.Encrypt(d)
		if err != nil {
			return nil, fmt.Errorf("ehl: encrypting digest %d: %w", i, err)
		}
		cts[i] = ct
	}
	return &List{Cts: cts}, nil
}

// RandomList builds a list of encryptions of uniformly random Z_N values:
// uniform units of Z*_{N^2}, which is the same distribution (with g = 1+N,
// (r, rho) -> g^r * rho^N is a bijection from Z_N x Z*_N onto Z*_{N^2})
// drawn without a nonce power. S1 pads sorting networks and names join
// results with it: with overwhelming probability it matches no real object.
func RandomList(pk *paillier.PublicKey, params Params) (*List, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	cts := make([]*paillier.Ciphertext, params.Width())
	for i := range cts {
		u, err := zmath.RandUnit(rand.Reader, pk.N2)
		if err != nil {
			return nil, err
		}
		cts[i] = &paillier.Ciphertext{C: u}
	}
	return &List{Cts: cts}, nil
}

// Clone deep-copies the list.
func (l *List) Clone() *List {
	if l == nil {
		return nil
	}
	out := &List{Cts: make([]*paillier.Ciphertext, len(l.Cts))}
	for i, c := range l.Cts {
		out.Cts[i] = c.Clone()
	}
	return out
}

// Width returns the number of ciphertexts in the list.
func (l *List) Width() int { return len(l.Cts) }

func compatible(a, b *List) error {
	if a == nil || b == nil {
		return errors.New("ehl: nil list")
	}
	if len(a.Cts) != len(b.Cts) {
		return fmt.Errorf("ehl: incompatible lists (width %d vs %d)", len(a.Cts), len(b.Cts))
	}
	return nil
}

// Sub is the randomized equality operator ⊖ (Equation 1):
//
//	Sub(x, y) = prod_i (x[i] * y[i]^{-1})^{r_i}
//
// with fresh random r_i in Z_N. The result encrypts 0 iff the underlying
// objects are equal and a uniformly random value otherwise: two distinct
// objects match with probability about 1/N, whatever the width.
func Sub(pk *paillier.PublicKey, a, b *List) (*paillier.Ciphertext, error) {
	return SubEnc(pk, a, b)
}

// SubEnc is Sub with an explicit encryption surface, so hot paths can
// draw the leading zero-encryption from a nonce pool.
//
// The operator runs in batch form: one Montgomery batch inversion for all
// the y-slots, one multiply per slot for the differences, and a single
// Straus multi-exponentiation that shares its squaring ladder across every
// slot — instead of a full-width exponentiation plus an extended-GCD
// inverse per slot. Randomness is drawn in a fixed order (the zero
// encryption, then r_1..r_s).
func SubEnc(enc paillier.Encryptor, a, b *List) (*paillier.Ciphertext, error) {
	if err := compatible(a, b); err != nil {
		return nil, err
	}
	pk := enc.Key()
	eng := pk.EngineN2()
	acc, err := enc.EncryptZero()
	if err != nil {
		return nil, err
	}
	bvals := make([]*big.Int, len(b.Cts))
	avals := make([]*big.Int, len(a.Cts))
	for i := range a.Cts {
		if a.Cts[i] == nil || a.Cts[i].C == nil || b.Cts[i] == nil || b.Cts[i].C == nil {
			return nil, fmt.Errorf("ehl: Sub slot %d: nil ciphertext", i)
		}
		avals[i] = a.Cts[i].C
		bvals[i] = b.Cts[i].C
	}
	rs := make([]*big.Int, len(a.Cts))
	for i := range rs {
		if rs[i], err = zmath.RandUnit(rand.Reader, pk.N); err != nil {
			return nil, err
		}
	}
	binvs, err := zmath.BatchModInverseMod(bvals, eng)
	if err != nil {
		return nil, fmt.Errorf("ehl: Sub inverses: %w", err)
	}
	diffs := make([]*big.Int, len(avals))
	for i := range diffs {
		diffs[i] = eng.MulMod(avals[i], binvs[i])
	}
	prod, err := eng.MultiExpMod(diffs, rs)
	if err != nil {
		return nil, fmt.Errorf("ehl: Sub multi-exp: %w", err)
	}
	return &paillier.Ciphertext{C: eng.MulMod(acc.C, prod)}, nil
}

// ByteSize returns the serialized size of the list under pk.
func (l *List) ByteSize(pk *paillier.PublicKey) int {
	return len(l.Cts) * pk.ByteLen()
}
