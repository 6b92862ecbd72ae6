package sectopk

import (
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/knn"
	"repro/internal/prf"
	"repro/internal/secerr"
	"repro/internal/shard"
)

// Keys is the secret key material an owner provisions to the crypto
// cloud. It is opaque: whoever holds it can decrypt the owner's data, so
// it must only travel owner → S2.
type Keys struct {
	km *cloud.KeyMaterial
}

// Owner is the data owner role of SecTopK: it generates keys, encrypts
// relations (Enc, Algorithm 2) — optionally partitioned into shards for
// concurrent query execution (WithShards) — issues query tokens
// (Section 7), and, standing in for authorized clients, reveals
// encrypted results.
type Owner struct {
	scheme *core.Scheme
	shards int
	// knnMaster keys the kNN id-digest table. It is derived
	// deterministically from the owner's persisted scheme secrets
	// (domain-separated), so a restored owner — including one restored
	// from a bundle written before the kNN workload existed — always
	// reveals kNN answers over record stores the original encrypted.
	knnMaster prf.Key

	mu           sync.Mutex
	revealers    map[int]*core.Revealer
	knn          *knn.Scheme // lazily built on first kNN use
	knnRevealers map[int]*knn.Revealer
}

// NewOwner generates an owner with fresh key material.
func NewOwner(opts ...Option) (*Owner, error) {
	cfg := buildConfig(opts)
	scheme, err := core.NewScheme(cfg.coreParams())
	if err != nil {
		return nil, err
	}
	return newOwner(scheme, cfg.shards), nil
}

// newOwner assembles an owner around a (fresh or restored) scheme.
func newOwner(scheme *core.Scheme, shards int) *Owner {
	knnMaster := prf.Key(prf.Eval(prf.Key(scheme.Secrets().Master),
		[]byte("sectopk/knn-digest-master/v1")))
	return &Owner{
		scheme: scheme, shards: shards, knnMaster: knnMaster,
		revealers:    map[int]*core.Revealer{},
		knnRevealers: map[int]*knn.Revealer{},
	}
}

// knnScheme returns the (lazily built) kNN owner scheme, which shares the
// owner's Paillier keys but hashes record ids under the dedicated kNN
// master key.
func (o *Owner) knnScheme() (*knn.Scheme, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.knn != nil {
		return o.knn, nil
	}
	p := o.scheme.Params()
	s, err := knn.NewSchemeWithMaster(o.scheme.KeyMaterial(), o.knnMaster, p.EHL, p.MaxScoreBits)
	if err != nil {
		return nil, err
	}
	o.knn = s
	return s, nil
}

// knnRevealer returns the (cached) kNN digest resolver for record stores
// of n rows.
func (o *Owner) knnRevealer(n int) (*knn.Revealer, error) {
	s, err := o.knnScheme()
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if r, ok := o.knnRevealers[n]; ok {
		return r, nil
	}
	r, err := s.NewRevealer(n)
	if err != nil {
		return nil, err
	}
	o.knnRevealers[n] = r
	return r, nil
}

// Keys returns the secret key material to provision to a CryptoCloud.
func (o *Owner) Keys() *Keys { return &Keys{km: o.scheme.KeyMaterial()} }

// Encrypt outsources a relation: each attribute list is sorted, ids are
// EHL-encrypted, scores Paillier-encrypted, and list positions permuted.
// With WithShards(p), the rows are first partitioned round-robin into p
// shards, each encrypted as a complete relation under globally unique
// ids, so the data cloud can run one query's shards concurrently. The
// returned EncryptedRelation carries only public material.
func (o *Owner) Encrypt(rel *Relation) (*EncryptedRelation, error) {
	d, err := rel.toDataset()
	if err != nil {
		return nil, err
	}
	p := o.shards
	if p > len(d.Rows) {
		p = len(d.Rows)
	}
	if p <= 1 {
		er, err := o.scheme.EncryptRelation(d)
		if err != nil {
			return nil, err
		}
		sh, err := shard.New([]*core.EncryptedRelation{er})
		if err != nil {
			return nil, err
		}
		return &EncryptedRelation{sh: sh, pk: o.scheme.PublicKey()}, nil
	}
	sh, err := shard.Encrypt(o.scheme, d, p)
	if err != nil {
		return nil, err
	}
	return &EncryptedRelation{sh: sh, pk: o.scheme.PublicKey()}, nil
}

// Token issues the trapdoor for one query over an encrypted relation.
// One token is valid for every shard of the relation; k is validated
// against the global row count. Invalid queries fail with
// ErrInvalidToken.
func (o *Owner) Token(er *EncryptedRelation, q Query) (*Token, error) {
	if er == nil {
		return nil, secerr.New(secerr.CodeInvalidToken, "sectopk: nil encrypted relation")
	}
	tk, err := o.scheme.TokenFor(er.sh.N, er.sh.M, q.Attrs, q.Weights, q.K)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeInvalidToken, err, "sectopk: token")
	}
	return &Token{tk: tk}, nil
}

// revealer returns the (cached) digest resolver for relations of n rows.
func (o *Owner) revealer(n int) (*core.Revealer, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if r, ok := o.revealers[n]; ok {
		return r, nil
	}
	r, err := o.scheme.NewRevealer(n)
	if err != nil {
		return nil, err
	}
	o.revealers[n] = r
	return r, nil
}

// Reveal decrypts an encrypted query result into (object, score) pairs,
// ranked best-first. Only the owner (or a client provisioned with the
// owner's keys) can reveal.
func (o *Owner) Reveal(er *EncryptedRelation, res *EncryptedResult) ([]Result, error) {
	if er == nil || res == nil {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: nil relation or result")
	}
	// Size the digest table by the id space, not the live row count: a
	// mutated relation's live ids are sparse in [0, idSpace), and the
	// extra digests for dead ids are harmless (they can never appear in a
	// result — tombstones are structurally outside the query's view).
	rev, err := o.revealer(er.idSpace())
	if err != nil {
		return nil, err
	}
	revealed, err := rev.RevealTopK(res.items)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(revealed))
	for i, r := range revealed {
		out[i] = Result{Object: r.Obj, Score: r.Worst}
	}
	return out, nil
}

// JoinOwner is the data owner for the multi-relation join setting
// (Section 12): relations it encrypts share key material, so the clouds
// can evaluate equi-join conditions across them.
type JoinOwner struct {
	scheme *join.Scheme
}

// NewJoinOwner generates a join owner with fresh key material.
func NewJoinOwner(opts ...Option) (*JoinOwner, error) {
	cfg := buildConfig(opts)
	scheme, err := join.NewScheme(cfg.coreParams())
	if err != nil {
		return nil, err
	}
	return &JoinOwner{scheme: scheme}, nil
}

// Keys returns the secret key material to provision to a CryptoCloud.
// All of this owner's join relations share it, so one registration
// serves every join over them.
func (o *JoinOwner) Keys() *Keys { return &Keys{km: o.scheme.KeyMaterial()} }

// Encrypt outsources a join relation (the per-relation half of
// Algorithm 10).
func (o *JoinOwner) Encrypt(rel *Relation) (*EncryptedJoinRelation, error) {
	d, err := rel.toDataset()
	if err != nil {
		return nil, err
	}
	er, err := o.scheme.EncryptRelation(d)
	if err != nil {
		return nil, err
	}
	p := o.scheme.Params()
	return &EncryptedJoinRelation{er: er, pk: o.scheme.PublicKey(), ehlS: p.EHL.S, maxScoreBits: p.MaxScoreBits}, nil
}

// Token issues the trapdoor for one top-k equi-join over two of this
// owner's encrypted relations.
func (o *JoinOwner) Token(er1, er2 *EncryptedJoinRelation, q JoinQuery) (*JoinToken, error) {
	if er1 == nil || er2 == nil {
		return nil, secerr.New(secerr.CodeInvalidToken, "sectopk: nil encrypted join relation")
	}
	tk, err := o.scheme.NewToken(er1.er, er2.er, q.JoinAttr1, q.JoinAttr2, q.ScoreAttr1, q.ScoreAttr2, q.Project1, q.Project2, q.K)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeInvalidToken, err, "sectopk: join token")
	}
	return &JoinToken{tk: tk}, nil
}

// Reveal decrypts an encrypted join result into scored tuples.
func (o *JoinOwner) Reveal(res *EncryptedJoinResult) ([]JoinResult, error) {
	if res == nil {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: nil join result")
	}
	revealed, err := o.scheme.Reveal(res.tuples)
	if err != nil {
		return nil, err
	}
	out := make([]JoinResult, len(revealed))
	for i, t := range revealed {
		out[i] = JoinResult{Score: t.Score, Attrs: t.Attrs}
	}
	return out, nil
}
