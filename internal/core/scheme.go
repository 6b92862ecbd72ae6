// Package core implements SecTopK = (Enc, Token, SecQuery), the paper's
// primary contribution (Definition 4.1): adaptively CQA-secure top-k
// query processing over an encrypted relation in the two non-colluding
// clouds model.
//
//   - Scheme is the data owner: it generates keys, encrypts relations
//     (Algorithm 2), issues query tokens (Section 7), and — standing in
//     for authorized clients — reveals returned results.
//   - Engine is the data cloud S1: it runs SecQuery (Algorithm 3) against
//     the crypto cloud S2 in its three evaluated variants Qry_F, Qry_E,
//     Qry_Ba.
package core

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/protocols"
)

// Params configures the scheme.
type Params struct {
	// KeyBits is the Paillier modulus size. The paper's evaluation uses a
	// small modulus (32-byte ciphertexts, Section 11.2.5); tests use 256,
	// production should use 2048+.
	KeyBits int
	// EHL selects the encrypted-hash-list structure (EHL+ by default).
	EHL ehl.Params
	// MaxScoreBits bounds a single attribute value: scores must lie in
	// [0, 2^MaxScoreBits). Used to size comparison masks.
	MaxScoreBits int
	// FastNonce opts the owner's bulk encryption (scores and EHL digests)
	// into the short-exponent fixed-base nonce path
	// (paillier.NewFastEncryptor). Off by default: it rests on the
	// short-exponent/subgroup assumption (see DESIGN.md "Precomputation
	// fast paths"). When off, the owner still uses the
	// assumption-free CRT split — it holds the private key — which is
	// bit-compatible with the spec path.
	FastNonce bool
}

// DefaultParams returns the evaluation configuration: EHL+ with s = 5 and
// 20-bit scores.
func DefaultParams() Params {
	return Params{KeyBits: 512, EHL: ehl.DefaultPlusParams(), MaxScoreBits: 20}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.KeyBits < paillier.MinKeyBits {
		return fmt.Errorf("core: KeyBits %d below minimum %d", p.KeyBits, paillier.MinKeyBits)
	}
	if err := p.EHL.Validate(); err != nil {
		return err
	}
	if p.MaxScoreBits <= 0 || p.MaxScoreBits >= p.KeyBits/2 {
		return fmt.Errorf("core: MaxScoreBits %d out of range for %d-bit keys", p.MaxScoreBits, p.KeyBits)
	}
	return nil
}

// Scheme holds the data owner's key material.
type Scheme struct {
	params  Params
	keys    *cloud.KeyMaterial
	master  prf.Key // EHL master key (kappa_1..kappa_s derive from it)
	permKey prf.Key // PRP key K for list permutation
	hasher  *ehl.Hasher
	// enc is the owner's bulk-encryption surface, for scores and (through
	// hasher) EHL digests alike: the CRT nonce split by default (the owner
	// holds the factorization), the fast-nonce table when Params.FastNonce
	// is set.
	enc paillier.Encryptor
}

// ownerEncryptor picks the owner's encryption surface for the params.
func ownerEncryptor(params Params, keys *cloud.KeyMaterial) (paillier.Encryptor, error) {
	if params.FastNonce {
		return paillier.NewFastEncryptor(&keys.Paillier.PublicKey)
	}
	return keys.Paillier.CRTEncryptor(), nil
}

// NewScheme generates fresh key material.
func NewScheme(params Params) (*Scheme, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	keys, err := cloud.NewKeyMaterial(params.KeyBits)
	if err != nil {
		return nil, err
	}
	return NewSchemeFromKeys(params, keys)
}

// NewSchemeFromKeys builds a scheme over existing key material (so tests
// and benchmarks can share one expensive key pair).
func NewSchemeFromKeys(params Params, keys *cloud.KeyMaterial) (*Scheme, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if keys == nil || keys.Paillier == nil {
		return nil, errors.New("core: missing key material")
	}
	master, err := prf.NewKey()
	if err != nil {
		return nil, err
	}
	permKey, err := prf.NewKey()
	if err != nil {
		return nil, err
	}
	enc, err := ownerEncryptor(params, keys)
	if err != nil {
		return nil, err
	}
	hasher, err := ehl.NewHasher(master, params.EHL, enc)
	if err != nil {
		return nil, err
	}
	return &Scheme{params: params, keys: keys, master: master, permKey: permKey, hasher: hasher, enc: enc}, nil
}

// Secrets carries the owner's symmetric secrets: the EHL master key the
// kappa_i derive from and the PRP key K. Together with the Paillier key
// material they fully determine the scheme, so an owner can persist and
// restore it (and authorized clients can be provisioned for token
// generation and result revealing).
type Secrets struct {
	Master prf.Key
	Perm   prf.Key
}

// Secrets exports the owner's symmetric secrets.
func (s *Scheme) Secrets() Secrets {
	return Secrets{
		Master: append(prf.Key(nil), s.master...),
		Perm:   append(prf.Key(nil), s.permKey...),
	}
}

// RestoreScheme rebuilds a scheme from persisted key material and
// secrets; encryptions, tokens, and revealers produced by the original
// scheme remain valid.
func RestoreScheme(params Params, keys *cloud.KeyMaterial, secrets Secrets) (*Scheme, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if keys == nil || keys.Paillier == nil {
		return nil, errors.New("core: missing key material")
	}
	if len(secrets.Master) == 0 || len(secrets.Perm) == 0 {
		return nil, errors.New("core: missing scheme secrets")
	}
	enc, err := ownerEncryptor(params, keys)
	if err != nil {
		return nil, err
	}
	hasher, err := ehl.NewHasher(secrets.Master, params.EHL, enc)
	if err != nil {
		return nil, err
	}
	return &Scheme{
		params:  params,
		keys:    keys,
		master:  append(prf.Key(nil), secrets.Master...),
		permKey: append(prf.Key(nil), secrets.Perm...),
		hasher:  hasher,
		enc:     enc,
	}, nil
}

// Params returns the scheme parameters.
func (s *Scheme) Params() Params { return s.params }

// KeyMaterial returns the secret keys the data owner provisions to the
// crypto cloud S2 (Algorithm 2 line 10).
func (s *Scheme) KeyMaterial() *cloud.KeyMaterial { return s.keys }

// PublicKey returns the Paillier public key (provisioned to S1).
func (s *Scheme) PublicKey() *paillier.PublicKey { return &s.keys.Paillier.PublicKey }

// EncItem is one encrypted data item E(I) = <EHL(o), Enc(x)> (Section 6).
type EncItem struct {
	EHL   *ehl.List
	Score *paillier.Ciphertext
}

// EncryptedRelation is the outsourced ER: M permuted sorted lists of
// encrypted items. Beyond n and M it reveals nothing (Theorem 6.1).
type EncryptedRelation struct {
	Name      string
	N, M      int
	EHLParams ehl.Params
	// MaxScoreBits is the public bound on attribute magnitudes (schema
	// metadata the engine needs to size comparison masks).
	MaxScoreBits int
	// Lists[p] is the encrypted sorted list stored at permuted position p.
	Lists [][]EncItem
}

// ByteSize returns the serialized size of the encrypted relation, for the
// storage-overhead experiments (Figures 7b/8b).
func (er *EncryptedRelation) ByteSize(pk *paillier.PublicKey) int64 {
	var total int64
	for _, list := range er.Lists {
		for _, it := range list {
			total += int64(it.EHL.ByteSize(pk)) + int64(pk.ByteLen())
		}
	}
	return total
}

// EncryptRelation implements Enc (Algorithm 2): sort each attribute list
// descending, encrypt ids with EHL and scores with Paillier, and permute
// the lists with the PRP P_K. Encryption parallelizes across items the
// way the paper's 64-thread setup does, bounded by GOMAXPROCS.
func (s *Scheme) EncryptRelation(rel *dataset.Relation) (*EncryptedRelation, error) {
	return s.EncryptRelationWithIDs(rel, nil)
}

// EncryptRelationWithIDs is EncryptRelation with explicit object ids:
// ids[i] is the identity encrypted into row i's EHL (nil means row index,
// the single-relation behavior). Shard encryption uses it so every shard
// of one relation carries globally unique ids under the shared EHL keys —
// digests stay collision-free across shards and one Revealer resolves any
// shard's results. Ties in a sorted list break on the global id, so a
// sharded encryption orders rows exactly like the unsharded one.
func (s *Scheme) EncryptRelationWithIDs(rel *dataset.Relation, ids []int) (*EncryptedRelation, error) {
	if rel == nil {
		return nil, errors.New("core: nil relation")
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	if max := rel.MaxScore(); max >= 1<<uint(s.params.MaxScoreBits) {
		return nil, fmt.Errorf("core: score %d exceeds MaxScoreBits=%d", max, s.params.MaxScoreBits)
	}
	if ids != nil && len(ids) != rel.N() {
		return nil, fmt.Errorf("core: %d ids for %d rows", len(ids), rel.N())
	}
	gid := func(row int) int {
		if ids == nil {
			return row
		}
		return ids[row]
	}
	n, m := rel.N(), rel.M()
	attrs := make([]int, m)
	for j := range attrs {
		attrs[j] = j
	}
	lists, err := sortedPlainLists(rel, attrs, gid)
	if err != nil {
		return nil, err
	}
	perm, err := prf.NewPerm(s.permKey, m)
	if err != nil {
		return nil, err
	}
	er := &EncryptedRelation{
		Name: rel.Name, N: n, M: m,
		EHLParams:    s.params.EHL,
		MaxScoreBits: s.params.MaxScoreBits,
		Lists:        make([][]EncItem, m),
	}

	permuted := make([]int, m)
	for j := 0; j < m; j++ {
		pj, err := perm.Apply(j)
		if err != nil {
			return nil, err
		}
		permuted[j] = pj
		er.Lists[pj] = make([]EncItem, n)
	}
	// One job per (list, depth) cell on the shared worker substrate; each
	// cell owns its output slot, so no synchronization is needed.
	err = parallel.ForEachCtx(context.Background(), m*n, func(idx int) error {
		j, d := idx/n, idx%n
		entry := lists[j][d]
		l, err := s.hasher.Build(uint64(gid(entry.obj)))
		if err != nil {
			return err
		}
		ct, err := s.enc.Encrypt(big.NewInt(entry.score))
		if err != nil {
			return err
		}
		er.Lists[permuted[j]][d] = EncItem{EHL: l, Score: ct}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: encrypting relation: %w", err)
	}
	return er, nil
}

// EncryptEntry encrypts a single (object id, score) cell under the
// scheme keys: EHL(id) plus Enc(score). It is the unit the mutation
// plane builds deltas from — a fresh row contributes one EncryptEntry
// per attribute list, bit-compatible with what EncryptRelationWithIDs
// would have produced for the same id at the same position.
func (s *Scheme) EncryptEntry(id int, score int64) (EncItem, error) {
	if id < 0 {
		return EncItem{}, fmt.Errorf("core: negative object id %d", id)
	}
	if score < 0 || score >= 1<<uint(s.params.MaxScoreBits) {
		return EncItem{}, fmt.Errorf("core: score %d out of range [0, 2^%d)", score, s.params.MaxScoreBits)
	}
	l, err := s.hasher.Build(uint64(id))
	if err != nil {
		return EncItem{}, err
	}
	ct, err := s.enc.Encrypt(big.NewInt(score))
	if err != nil {
		return EncItem{}, err
	}
	return EncItem{EHL: l, Score: ct}, nil
}

// PermutedPositions maps each attribute j in [0, m) to the permuted
// list position P_K(j), i.e. out[j] is the stored index of attribute
// j's sorted list. Delta construction needs the full mapping to place
// per-attribute entries into the permuted list layout.
func (s *Scheme) PermutedPositions(m int) ([]int, error) {
	perm, err := prf.NewPerm(s.permKey, m)
	if err != nil {
		return nil, err
	}
	out := make([]int, m)
	for j := 0; j < m; j++ {
		if out[j], err = perm.Apply(j); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type plainEntry struct {
	obj   int
	score int64
}

func sortedPlainLists(rel *dataset.Relation, attrs []int, gid func(int) int) ([][]plainEntry, error) {
	out := make([][]plainEntry, len(attrs))
	for li, a := range attrs {
		list := make([]plainEntry, rel.N())
		for i := 0; i < rel.N(); i++ {
			list[i] = plainEntry{obj: i, score: rel.Rows[i][a]}
		}
		// Descending by score, ties by (global) object id (deterministic).
		sort.Slice(list, func(x, y int) bool {
			if list[x].score != list[y].score {
				return list[x].score > list[y].score
			}
			return gid(list[x].obj) < gid(list[y].obj)
		})
		out[li] = list
	}
	return out, nil
}

// Token is the query trapdoor of Section 7: the permuted list positions
// for the queried attributes, optional weights, and k.
type Token struct {
	K       int
	Lists   []int
	Weights []int64
}

// Token implements Token(K, q): map the queried attribute set through the
// PRP. Non-binary weights ride along for S1 to apply via scalar
// multiplication (Section 7).
func (s *Scheme) Token(er *EncryptedRelation, attrs []int, weights []int64, k int) (*Token, error) {
	if er == nil {
		return nil, errors.New("core: nil encrypted relation")
	}
	return s.TokenFor(er.N, er.M, attrs, weights, k)
}

// TokenFor is Token against explicit relation dimensions instead of a
// materialized EncryptedRelation — the sharded facade validates against
// the global (n, m) while each shard only materializes its own slice.
// The PRP depends only on m and the owner's key, so one token is valid
// for every shard of the relation.
func (s *Scheme) TokenFor(n, m int, attrs []int, weights []int64, k int) (*Token, error) {
	if len(attrs) == 0 {
		return nil, errors.New("core: no attributes in query")
	}
	if weights != nil && len(weights) != len(attrs) {
		return nil, fmt.Errorf("core: %d weights for %d attributes", len(weights), len(attrs))
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("core: k=%d out of range (1..%d)", k, n)
	}
	perm, err := prf.NewPerm(s.permKey, m)
	if err != nil {
		return nil, err
	}
	tk := &Token{K: k}
	seen := map[int]bool{}
	for _, a := range attrs {
		if a < 0 || a >= m {
			return nil, fmt.Errorf("core: attribute %d out of range [0,%d)", a, m)
		}
		if seen[a] {
			return nil, fmt.Errorf("core: duplicate attribute %d in query", a)
		}
		seen[a] = true
		p, err := perm.Apply(a)
		if err != nil {
			return nil, err
		}
		tk.Lists = append(tk.Lists, p)
	}
	if weights != nil {
		for _, w := range weights {
			if w < 0 {
				return nil, fmt.Errorf("core: negative weight %d (monotone scoring requires w >= 0)", w)
			}
		}
		tk.Weights = append([]int64(nil), weights...)
	}
	return tk, nil
}

// Revealer maps decrypted EHL digests back to object ids. Only key
// holders (the data owner and authorized clients) can build one.
type Revealer struct {
	sk     *paillier.PrivateKey
	byHex  map[string]int
	hasher *ehl.Hasher
}

// digestKey canonically encodes a full digest vector. Keying on the whole
// vector matters for the classic EHL, where a single slot is just a bit.
func digestKey(digests []*big.Int) string {
	var b strings.Builder
	for _, d := range digests {
		b.WriteString(hex.EncodeToString(d.Bytes()))
		b.WriteByte('|')
	}
	return b.String()
}

// NewRevealer precomputes the digest table for objects 0..n-1.
func (s *Scheme) NewRevealer(n int) (*Revealer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: revealer needs positive n, got %d", n)
	}
	r := &Revealer{sk: s.keys.Paillier, byHex: make(map[string]int, n), hasher: s.hasher}
	for i := 0; i < n; i++ {
		d, err := s.hasher.Digests(uint64(i))
		if err != nil {
			return nil, err
		}
		r.byHex[digestKey(d)] = i
	}
	return r, nil
}

// Object decrypts an EHL's digest vector and resolves the object id.
func (r *Revealer) Object(l *ehl.List) (int, error) {
	if l == nil || len(l.Cts) == 0 {
		return 0, errors.New("core: empty EHL")
	}
	digests := make([]*big.Int, len(l.Cts))
	for i, ct := range l.Cts {
		d, err := r.sk.Decrypt(ct)
		if err != nil {
			return 0, err
		}
		digests[i] = d
	}
	obj, ok := r.byHex[digestKey(digests)]
	if !ok {
		return 0, errors.New("core: digest does not match any object (sentinel row?)")
	}
	return obj, nil
}

// Score decrypts a score ciphertext under the signed interpretation.
func (r *Revealer) Score(ct *paillier.Ciphertext) (int64, error) {
	m, err := r.sk.DecryptSigned(ct)
	if err != nil {
		return 0, err
	}
	if !m.IsInt64() {
		return 0, fmt.Errorf("core: score %v overflows int64", m)
	}
	return m.Int64(), nil
}

// RevealTopK resolves a SecQuery result into (object id, worst score)
// pairs for the client.
func (r *Revealer) RevealTopK(items []protocols.Item) ([]RevealedResult, error) {
	out := make([]RevealedResult, 0, len(items))
	for _, it := range items {
		obj, err := r.Object(it.EHL)
		if err != nil {
			return nil, err
		}
		w, err := r.Score(it.Scores[protocols.ColWorst])
		if err != nil {
			return nil, err
		}
		out = append(out, RevealedResult{Obj: obj, Worst: w})
	}
	return out, nil
}

// RevealedResult is one decrypted top-k answer.
type RevealedResult struct {
	Obj   int
	Worst int64
}
