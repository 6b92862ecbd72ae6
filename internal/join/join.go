// Package join implements the secure top-k join of Section 12: the
// encryption setup for multiple relations (Algorithm 10), the join token
// (Section 12.3), the oblivious nested-loop equi-join operator ./sec
// (SecJoin, Algorithm 11) and its SecFilter post-processing, and the
// plaintext baseline used as ground truth.
package join

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sort"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/prf"
	"repro/internal/protocols"
)

// Params configures the join scheme: the top-k scheme's parameters,
// checked by the same Validate.
type Params = core.Params

// Scheme is the data owner for the multi-relation setting. Attribute
// *values* are EHL-encrypted (not object ids), so the servers can
// homomorphically evaluate the equi-join condition across relations
// (Algorithm 10 line 4).
type Scheme struct {
	params  Params
	keys    *cloud.KeyMaterial
	hasher  *ehl.Hasher
	master  prf.Key
	permKey prf.Key
	// enc is the owner's bulk-encryption surface, for values and (through
	// hasher) value digests: the key itself, whose nonce powers come from
	// its fixed-base table like every other party's.
	enc paillier.Encryptor
}

// Secrets is the symmetric secret material of a join owner: the EHL
// hashing master key and the attribute-permutation key. Together with the
// Paillier factorization they restore the full scheme.
type Secrets struct {
	Master, Perm []byte
}

// NewScheme generates fresh key material.
func NewScheme(params Params) (*Scheme, error) {
	keys, err := cloud.NewKeyMaterial(params.KeyBits)
	if err != nil {
		return nil, err
	}
	return NewSchemeFromKeys(params, keys)
}

// NewSchemeFromKeys builds the scheme over existing keys with freshly
// sampled symmetric secrets.
func NewSchemeFromKeys(params Params, keys *cloud.KeyMaterial) (*Scheme, error) {
	master, err := prf.NewKey()
	if err != nil {
		return nil, err
	}
	permKey, err := prf.NewKey()
	if err != nil {
		return nil, err
	}
	return RestoreScheme(params, keys, Secrets{Master: master, Perm: permKey})
}

// RestoreScheme rebuilds a scheme from persisted keys and secrets:
// relations, tokens, and results produced by the original scheme remain
// valid.
func RestoreScheme(params Params, keys *cloud.KeyMaterial, secrets Secrets) (*Scheme, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if keys == nil || keys.Paillier == nil {
		return nil, errors.New("join: missing key material")
	}
	if len(secrets.Master) == 0 || len(secrets.Perm) == 0 {
		return nil, errors.New("join: missing symmetric secrets")
	}
	enc := &keys.Paillier.PublicKey
	hasher, err := ehl.NewHasher(prf.Key(secrets.Master), params.EHL, enc)
	if err != nil {
		return nil, err
	}
	return &Scheme{
		params: params, keys: keys, hasher: hasher,
		master: prf.Key(secrets.Master), permKey: prf.Key(secrets.Perm),
		enc: enc,
	}, nil
}

// KeyMaterial returns the secret keys for provisioning S2.
func (s *Scheme) KeyMaterial() *cloud.KeyMaterial { return s.keys }

// Secrets returns the symmetric secret material for owner-side
// persistence.
func (s *Scheme) Secrets() Secrets {
	return Secrets{Master: s.master, Perm: s.permKey}
}

// Params returns the scheme parameters.
func (s *Scheme) Params() Params { return s.params }

// PublicKey returns the Paillier public key.
func (s *Scheme) PublicKey() *paillier.PublicKey { return &s.keys.Paillier.PublicKey }

// EncAttr is one encrypted attribute cell E(s) = <EHL(value), Enc(value)>.
type EncAttr struct {
	EHL   *ehl.List
	Value *paillier.Ciphertext
}

// EncRelation is one encrypted relation: n tuples of M permuted encrypted
// attributes. It reveals only its dimensions (Section 12.2).
type EncRelation struct {
	Name string
	N, M int
	// Tuples[i][p] is tuple i's attribute stored at permuted position p.
	Tuples [][]EncAttr
}

// valueBytes encodes an attribute value for hashing; equal values collide
// across relations because the hasher keys are shared.
func valueBytes(v int64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v))
	return buf[:]
}

// EncryptRelation implements the per-relation half of Algorithm 10. The
// attribute permutation is keyed by relation name so each relation gets
// its own P.
func (s *Scheme) EncryptRelation(rel *dataset.Relation) (*EncRelation, error) {
	if rel == nil {
		return nil, errors.New("join: nil relation")
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	if max := rel.MaxScore(); max >= 1<<uint(s.params.MaxScoreBits) {
		return nil, fmt.Errorf("join: score %d exceeds MaxScoreBits=%d", max, s.params.MaxScoreBits)
	}
	perm, err := s.relationPerm(rel.Name, rel.M())
	if err != nil {
		return nil, err
	}
	out := &EncRelation{Name: rel.Name, N: rel.N(), M: rel.M(), Tuples: make([][]EncAttr, rel.N())}
	for i := 0; i < rel.N(); i++ {
		tuple := make([]EncAttr, rel.M())
		for j := 0; j < rel.M(); j++ {
			p, err := perm.Apply(j)
			if err != nil {
				return nil, err
			}
			l, err := s.hasher.BuildBytes(valueBytes(rel.Rows[i][j]))
			if err != nil {
				return nil, err
			}
			ct, err := s.enc.Encrypt(big.NewInt(rel.Rows[i][j]))
			if err != nil {
				return nil, err
			}
			tuple[p] = EncAttr{EHL: l, Value: ct}
		}
		out.Tuples[i] = tuple
	}
	return out, nil
}

func (s *Scheme) relationPerm(name string, m int) (*prf.Perm, error) {
	sub, err := prf.DeriveKeys(append(prf.Key(nil), s.permKey...), 1)
	if err != nil {
		return nil, err
	}
	key := prf.Key(prf.Eval(sub[0], []byte("rel:"+name)))
	return prf.NewPerm(key, m)
}

// Token is the join trapdoor: permuted positions of the join attributes
// (the equi-join condition JC), the score attributes, and the projected
// payload attributes, plus k.
type Token struct {
	K int
	// JoinPos1/JoinPos2: permuted positions of R1.A and R2.B.
	JoinPos1, JoinPos2 int
	// ScorePos1/ScorePos2: permuted positions of R1.C and R2.D in
	// Score = R1.C + R2.D.
	ScorePos1, ScorePos2 int
	// Proj1/Proj2: permuted positions of the projected attributes
	// returned with each joined tuple.
	Proj1, Proj2 []int
}

// NewToken builds the token for
//
//	SELECT proj FROM R1, R2 WHERE R1.joinA = R2.joinB
//	ORDER BY R1.scoreA + R2.scoreB STOP AFTER k
//
// mapping every attribute through the per-relation permutation
// (Section 12.3).
func (s *Scheme) NewToken(er1, er2 *EncRelation, joinA, joinB, scoreA, scoreB int, proj1, proj2 []int, k int) (*Token, error) {
	if er1 == nil || er2 == nil {
		return nil, errors.New("join: nil encrypted relation")
	}
	if k <= 0 {
		return nil, fmt.Errorf("join: k=%d must be positive", k)
	}
	p1, err := s.relationPerm(er1.Name, er1.M)
	if err != nil {
		return nil, err
	}
	p2, err := s.relationPerm(er2.Name, er2.M)
	if err != nil {
		return nil, err
	}
	mapAttr := func(p *prf.Perm, a, m int, what string) (int, error) {
		if a < 0 || a >= m {
			return 0, fmt.Errorf("join: %s attribute %d out of range [0,%d)", what, a, m)
		}
		return p.Apply(a)
	}
	tk := &Token{K: k}
	if tk.JoinPos1, err = mapAttr(p1, joinA, er1.M, "join"); err != nil {
		return nil, err
	}
	if tk.JoinPos2, err = mapAttr(p2, joinB, er2.M, "join"); err != nil {
		return nil, err
	}
	if tk.ScorePos1, err = mapAttr(p1, scoreA, er1.M, "score"); err != nil {
		return nil, err
	}
	if tk.ScorePos2, err = mapAttr(p2, scoreB, er2.M, "score"); err != nil {
		return nil, err
	}
	for _, a := range proj1 {
		p, err := mapAttr(p1, a, er1.M, "projection")
		if err != nil {
			return nil, err
		}
		tk.Proj1 = append(tk.Proj1, p)
	}
	for _, a := range proj2 {
		p, err := mapAttr(p2, a, er2.M, "projection")
		if err != nil {
			return nil, err
		}
		tk.Proj2 = append(tk.Proj2, p)
	}
	return tk, nil
}

// RevealedTuple is a decrypted joined result.
type RevealedTuple struct {
	Score int64
	Attrs []int64
}

// Reveal decrypts joined tuples (data-owner / client side).
func (s *Scheme) Reveal(tuples []protocols.JoinTuple) ([]RevealedTuple, error) {
	out := make([]RevealedTuple, 0, len(tuples))
	for _, t := range tuples {
		sc, err := s.keys.Paillier.DecryptSigned(t.Score)
		if err != nil {
			return nil, err
		}
		rt := RevealedTuple{Score: sc.Int64()}
		for _, a := range t.Attrs {
			v, err := s.keys.Paillier.DecryptSigned(a)
			if err != nil {
				return nil, err
			}
			rt.Attrs = append(rt.Attrs, v.Int64())
		}
		out = append(out, rt)
	}
	return out, nil
}

// PlainTopKJoin computes the ground-truth top-k equi-join.
func PlainTopKJoin(r1, r2 *dataset.Relation, joinA, joinB, scoreA, scoreB int, proj1, proj2 []int, k int) ([]RevealedTuple, error) {
	if r1 == nil || r2 == nil {
		return nil, errors.New("join: nil relation")
	}
	var out []RevealedTuple
	for i := 0; i < r1.N(); i++ {
		for j := 0; j < r2.N(); j++ {
			if r1.Rows[i][joinA] != r2.Rows[j][joinB] {
				continue
			}
			rt := RevealedTuple{Score: r1.Rows[i][scoreA] + r2.Rows[j][scoreB]}
			for _, a := range proj1 {
				rt.Attrs = append(rt.Attrs, r1.Rows[i][a])
			}
			for _, a := range proj2 {
				rt.Attrs = append(rt.Attrs, r2.Rows[j][a])
			}
			out = append(out, rt)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	if k < len(out) {
		out = out[:k]
	}
	return out, nil
}
