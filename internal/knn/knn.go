// Package knn implements the secure kNN comparator of Section 11.3
// (Elmehdwi, Samanthula, Jiang, ICDE 2014 — the paper's reference [21]),
// adapted to answer top-k selection queries the way Section 11.3
// describes: restrict the scoring function to sum-of-squares, query a
// large-enough point, and return the k nearest neighbors.
//
// The protocol's cost profile is the point of the comparison: every query
// touches all n records with O(n*m) secure multiplications between the
// clouds (both computation and communication scale with the database
// size), whereas SecTopK's per-depth cost is independent of n. The
// benchmark harness reproduces that gap.
package knn

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/prf"
	"repro/internal/protocols"
	"repro/internal/secerr"
)

// Scheme is the data owner for the SkNN baseline.
type Scheme struct {
	keys         *cloud.KeyMaterial
	hasher       *ehl.Hasher
	master       prf.Key
	maxScoreBits int
	// enc is the owner's bulk-encryption surface, for values and (through
	// hasher) id digests: the key itself, whose nonce powers come from its
	// fixed-base table like every other party's.
	enc paillier.Encryptor
}

// NewScheme builds the owner over existing key material with a freshly
// sampled id-hashing master key.
func NewScheme(keys *cloud.KeyMaterial, ehlParams ehl.Params, maxScoreBits int) (*Scheme, error) {
	master, err := prf.NewKey()
	if err != nil {
		return nil, err
	}
	return NewSchemeWithMaster(keys, master, ehlParams, maxScoreBits)
}

// NewSchemeWithMaster builds the owner over existing key material and an
// existing id-hashing master key, so a persisted owner can reveal results
// for databases it encrypted in an earlier process (the digest table is
// keyed by the master).
func NewSchemeWithMaster(keys *cloud.KeyMaterial, master prf.Key, ehlParams ehl.Params, maxScoreBits int) (*Scheme, error) {
	if keys == nil || keys.Paillier == nil {
		return nil, errors.New("knn: missing key material")
	}
	if len(master) == 0 {
		return nil, errors.New("knn: missing master key")
	}
	if maxScoreBits <= 0 {
		return nil, errors.New("knn: maxScoreBits must be positive")
	}
	enc := &keys.Paillier.PublicKey
	hasher, err := ehl.NewHasher(master, ehlParams, enc)
	if err != nil {
		return nil, err
	}
	return &Scheme{keys: keys, hasher: hasher, master: master, maxScoreBits: maxScoreBits, enc: enc}, nil
}

// Master returns the id-hashing master key, for owner-side persistence.
func (s *Scheme) Master() prf.Key { return s.master }

// EncRecord is one encrypted record: an id tag plus Enc(x_j) for every
// attribute. (Per Section 11.3 the owner also provisions the squares
// Enc(x_j^2); our engine derives the squared terms with SecSquare
// instead, which keeps the O(n*m) two-party multiplication cost the
// comparison is about.)
type EncRecord struct {
	ID     *ehl.List
	Values []*paillier.Ciphertext
}

// EncDatabase is the outsourced encrypted record store.
type EncDatabase struct {
	Name    string
	N, M    int
	Records []EncRecord
}

// Encrypt outsources the relation.
func (s *Scheme) Encrypt(rel *dataset.Relation) (*EncDatabase, error) {
	if rel == nil {
		return nil, errors.New("knn: nil relation")
	}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	if max := rel.MaxScore(); max >= 1<<uint(s.maxScoreBits) {
		return nil, fmt.Errorf("knn: score %d exceeds maxScoreBits=%d", max, s.maxScoreBits)
	}
	out := &EncDatabase{Name: rel.Name, N: rel.N(), M: rel.M()}
	for i := 0; i < rel.N(); i++ {
		rec := EncRecord{}
		id, err := s.hasher.Build(uint64(i))
		if err != nil {
			return nil, err
		}
		rec.ID = id
		for j := 0; j < rel.M(); j++ {
			ct, err := s.enc.Encrypt(big.NewInt(rel.Rows[i][j]))
			if err != nil {
				return nil, err
			}
			rec.Values = append(rec.Values, ct)
		}
		out.Records = append(out.Records, rec)
	}
	return out, nil
}

// Revealer resolves result ids (client side).
type Revealer struct {
	sk     *paillier.PrivateKey
	hasher *ehl.Hasher
	n      int
}

// NewRevealer builds the digest table resolver.
func (s *Scheme) NewRevealer(n int) (*Revealer, error) {
	if n <= 0 {
		return nil, errors.New("knn: revealer needs positive n")
	}
	return &Revealer{sk: s.keys.Paillier, hasher: s.hasher, n: n}, nil
}

// Reveal decrypts one result item into (object id, squared distance).
func (r *Revealer) Reveal(it protocols.Item) (int, int64, error) {
	d, err := r.sk.Decrypt(it.EHL.Cts[0])
	if err != nil {
		return 0, 0, err
	}
	obj := -1
	for i := 0; i < r.n; i++ {
		want, err := r.hasher.Digests(uint64(i))
		if err != nil {
			return 0, 0, err
		}
		if want[0].Cmp(d) == 0 {
			obj = i
			break
		}
	}
	if obj < 0 {
		return 0, 0, errors.New("knn: unknown result id")
	}
	dist, err := r.sk.DecryptSigned(it.Scores[0])
	if err != nil {
		return 0, 0, err
	}
	return obj, dist.Int64(), nil
}

// Engine is S1's SkNN query processor.
type Engine struct {
	client       *cloud.Client
	db           *EncDatabase
	maxScoreBits int
}

// NewEngine builds the engine over an encrypted database.
func NewEngine(client *cloud.Client, db *EncDatabase, maxScoreBits int) (*Engine, error) {
	if client == nil {
		return nil, errors.New("knn: nil client")
	}
	if db == nil || db.N == 0 {
		return nil, errors.New("knn: empty database")
	}
	if maxScoreBits <= 0 {
		return nil, errors.New("knn: maxScoreBits must be positive")
	}
	return &Engine{client: client, db: db, maxScoreBits: maxScoreBits}, nil
}

// Query returns the k records nearest to the (plaintext-weighted,
// encrypted) query point under squared L2 distance. Every query costs
// O(n*m) secure multiplications (one batched round trip carrying n*m
// ciphertexts each way) plus an oblivious k-minimum selection — the cost
// shape Section 11.3 compares against.
func (e *Engine) Query(ctx context.Context, q []int64, k int) ([]protocols.Item, error) {
	if len(q) != e.db.M {
		return nil, fmt.Errorf("knn: query has %d attributes, database has %d", len(q), e.db.M)
	}
	if k <= 0 {
		return nil, errors.New("knn: k must be positive")
	}
	if k > e.db.N {
		k = e.db.N
	}
	if err := ValidatePoint(q, e.maxScoreBits); err != nil {
		return nil, err
	}
	pk := e.client.PK()
	// Encrypt the query point: in [21] the querier ships Enc(q) and the
	// clouds compute on it without learning q. The client's encryption
	// surface (pooled where pools run) serves the encryptions, and each
	// Enc(-q_j) is inverted once for all n records.
	negQ := make([]*paillier.Ciphertext, e.db.M)
	for j, v := range q {
		ct, err := e.client.Enc().Encrypt(big.NewInt(v))
		if err != nil {
			return nil, err
		}
		if negQ[j], err = pk.Neg(ct); err != nil {
			return nil, err
		}
	}
	// Squared distance: d_i = sum_j (x_ij - q_j)^2, the squares from one
	// batched SecSquare round over all n*m differences. Records and the
	// point lie in [0, 2^maxScoreBits), so a difference |x - q| lies below
	// 2^maxScoreBits, the width SecSquare blinds at; magBits bounds a
	// distance.
	magBits := 2*e.maxScoreBits + 4 + bits.Len(uint(e.db.M))
	var diffs []*paillier.Ciphertext
	for _, rec := range e.db.Records {
		for j := 0; j < e.db.M; j++ {
			diff, err := pk.Add(rec.Values[j], negQ[j])
			if err != nil {
				return nil, err
			}
			diffs = append(diffs, diff)
		}
	}
	squares, err := protocols.SecSquare(ctx, e.client, diffs, e.maxScoreBits)
	if err != nil {
		return nil, err
	}
	items := make([]protocols.Item, e.db.N)
	for i, rec := range e.db.Records {
		// SecSquare's outputs are already randomized, so their sum needs no
		// fresh encryption of zero.
		dist, err := pk.AddAll(squares[i*e.db.M : (i+1)*e.db.M])
		if err != nil {
			return nil, err
		}
		items[i] = protocols.Item{EHL: rec.ID, Scores: []*paillier.Ciphertext{dist}, ScoreBits: magBits}
	}
	// Oblivious k-minimum extraction (ascending selection).
	ranked, err := protocols.EncSelectTop(ctx, e.client, items, 0, false, k, magBits)
	if err != nil {
		return nil, err
	}
	return ranked[:k], nil
}

// ValidatePoint bounds every query coordinate to [0, 2^maxScoreBits),
// refused typed invalid_token: out-of-range values would overflow the
// distance-comparison masks and rank silently wrong, and would outgrow
// the width the engine blinds differences at.
func ValidatePoint(point []int64, maxScoreBits int) error {
	for j, v := range point {
		// maxScoreBits >= 63 admits every non-negative int64 (shifting
		// would overflow).
		if v < 0 || (maxScoreBits < 63 && v >= int64(1)<<uint(maxScoreBits)) {
			return secerr.New(secerr.CodeInvalidToken,
				"knn: query coordinate %d = %d outside [0, 2^%d)", j, v, maxScoreBits)
		}
	}
	return nil
}

// PlainKNN is the ground-truth k nearest neighbors by squared L2.
func PlainKNN(rel *dataset.Relation, q []int64, k int) ([]int, []int64, error) {
	if rel == nil || rel.N() == 0 {
		return nil, nil, errors.New("knn: empty relation")
	}
	if len(q) != rel.M() {
		return nil, nil, fmt.Errorf("knn: query has %d attributes, relation has %d", len(q), rel.M())
	}
	type pair struct {
		obj  int
		dist int64
	}
	all := make([]pair, rel.N())
	for i := 0; i < rel.N(); i++ {
		var d int64
		for j := 0; j < rel.M(); j++ {
			diff := rel.Rows[i][j] - q[j]
			d += diff * diff
		}
		all[i] = pair{obj: i, dist: d}
	}
	// Simple selection; ties by object id.
	for p := 0; p < k && p < len(all); p++ {
		minIdx := p
		for i := p + 1; i < len(all); i++ {
			if all[i].dist < all[minIdx].dist ||
				(all[i].dist == all[minIdx].dist && all[i].obj < all[minIdx].obj) {
				minIdx = i
			}
		}
		all[p], all[minIdx] = all[minIdx], all[p]
	}
	if k > len(all) {
		k = len(all)
	}
	objs := make([]int, k)
	dists := make([]int64, k)
	for i := 0; i < k; i++ {
		objs[i] = all[i].obj
		dists[i] = all[i].dist
	}
	return objs, dists, nil
}

// TopKViaKNN answers a sum-of-squares top-k selection query through the
// kNN interface, per Section 11.3: query the upper bound of the attribute
// domain; the k nearest records under squared L2 are exactly the k
// records with the largest sum-of-squares scores... for records dominated
// by the corner this reduces top-k to kNN.
func TopKViaKNN(ctx context.Context, e *Engine, maxScore int64, k int) ([]protocols.Item, error) {
	q := make([]int64, e.db.M)
	for j := range q {
		q[j] = maxScore
	}
	return e.Query(ctx, q, k)
}
