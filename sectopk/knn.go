package sectopk

import (
	"context"

	"repro/internal/cloud"
	"repro/internal/knn"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/secerr"
)

// This file promotes the secure kNN operator of Section 11.3 (Elmehdwi,
// Samanthula, Jiang — the paper's reference [21]) to a first-class
// workload of the public API: the owner encrypts a record store and
// issues kNN trapdoors, the data cloud hosts it and answers k-nearest
// queries, and the owner reveals (object, squared distance) pairs. The
// operator's O(n*m) per-query cost profile is the baseline the paper's
// evaluation compares SecTopK against.

// EncryptedKNNRelation is an outsourced kNN record store: per-record
// encrypted ids and attribute values plus the public key they were
// encrypted under. It carries only public material — safe to hand to the
// data cloud.
type EncryptedKNNRelation struct {
	db           *knn.EncDatabase
	pk           *paillier.PublicKey
	maxScoreBits int
}

// Name returns the relation's name.
func (er *EncryptedKNNRelation) Name() string { return er.db.Name }

// Rows returns the record count n.
func (er *EncryptedKNNRelation) Rows() int { return er.db.N }

// Attributes returns the attribute count m.
func (er *EncryptedKNNRelation) Attributes() int { return er.db.M }

// KNNQuery describes one k-nearest-neighbors query: the query point (one
// coordinate per attribute, each within the owner's WithMaxScoreBits
// bound) and k.
type KNNQuery struct {
	Point []int64
	K     int
}

// KNNToken is the kNN trapdoor an authorized client sends to the data
// cloud: the query point travels inside it and is Paillier-encrypted by
// S1 before any protocol round, per [21]'s query model. The point's
// length is the attribute count it was issued for; the execution path
// re-checks it (and the coordinate bounds) against the hosted store.
type KNNToken struct {
	point []int64
	k     int
}

// K returns the query's k.
func (t *KNNToken) K() int { return t.k }

// EncryptedKNNResult is the encrypted outcome of one kNN query: the k
// nearest records, ids and squared distances still encrypted, ranked
// nearest-first.
type EncryptedKNNResult struct {
	items []protocols.Item
}

// Len returns the number of encrypted result items.
func (r *EncryptedKNNResult) Len() int { return len(r.items) }

// KNNResult is one revealed kNN answer: the record's row index in the
// original relation and its squared L2 distance from the query point.
type KNNResult struct {
	Object   int
	Distance int64
}

// EncryptKNN outsources a relation as a kNN record store: each record's
// id is EHL-encrypted under the owner's kNN digest key and every
// attribute value is Paillier-encrypted. The same owner can host top-k
// and kNN encryptions of one logical relation side by side (under
// distinct relation IDs).
func (o *Owner) EncryptKNN(rel *Relation) (*EncryptedKNNRelation, error) {
	d, err := rel.toDataset()
	if err != nil {
		return nil, err
	}
	s, err := o.knnScheme()
	if err != nil {
		return nil, err
	}
	db, err := s.Encrypt(d)
	if err != nil {
		return nil, err
	}
	return &EncryptedKNNRelation{
		db: db, pk: o.scheme.PublicKey(),
		maxScoreBits: o.scheme.Params().MaxScoreBits,
	}, nil
}

// KNNToken issues the trapdoor for one kNN query over an encrypted kNN
// relation. Invalid queries (dimension mismatch, non-positive k,
// out-of-bound coordinates) fail with ErrInvalidToken.
func (o *Owner) KNNToken(er *EncryptedKNNRelation, q KNNQuery) (*KNNToken, error) {
	if er == nil {
		return nil, secerr.New(secerr.CodeInvalidToken, "sectopk: nil encrypted kNN relation")
	}
	if err := er.validateQuery(q.Point, q.K); err != nil {
		return nil, err
	}
	point := append([]int64(nil), q.Point...)
	return &KNNToken{point: point, k: q.K}, nil
}

// validateQuery checks a kNN query against the store it targets: one
// coordinate per attribute, a positive k, every coordinate in bounds.
// Enforced both at token issue time and on the execution path, so a token
// rebuilt from the wire (or a tampered file) fails with the same
// ErrInvalidToken an in-process caller would get.
func (er *EncryptedKNNRelation) validateQuery(point []int64, k int) error {
	if len(point) != er.db.M {
		return secerr.New(secerr.CodeInvalidToken,
			"sectopk: kNN query point has %d coordinates, relation has %d attributes", len(point), er.db.M)
	}
	if k <= 0 {
		return secerr.New(secerr.CodeInvalidToken, "sectopk: kNN k=%d must be positive", k)
	}
	return validateKNNPoint(point, er.maxScoreBits)
}

// validateKNNPoint bounds every query coordinate to [0, 2^maxScoreBits):
// out-of-range values would overflow the distance-comparison masks and
// rank silently wrong.
func validateKNNPoint(point []int64, maxScoreBits int) error {
	for j, v := range point {
		// maxScoreBits >= 63 admits every non-negative int64 (shifting
		// would overflow).
		if v < 0 || (maxScoreBits < 63 && v >= int64(1)<<uint(maxScoreBits)) {
			return secerr.New(secerr.CodeInvalidToken,
				"sectopk: kNN query coordinate %d = %d outside [0, 2^%d)", j, v, maxScoreBits)
		}
	}
	return nil
}

// RevealKNN decrypts an encrypted kNN result into (object, squared
// distance) pairs, nearest-first. Only the owner that encrypted the
// relation (or a restored copy of it — the digest key derives from the
// persisted owner secrets) can reveal.
func (o *Owner) RevealKNN(er *EncryptedKNNRelation, res *EncryptedKNNResult) ([]KNNResult, error) {
	if er == nil || res == nil {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: nil kNN relation or result")
	}
	rev, err := o.knnRevealer(er.db.N)
	if err != nil {
		return nil, err
	}
	out := make([]KNNResult, len(res.items))
	for i, it := range res.items {
		obj, dist, err := rev.Reveal(it)
		if err != nil {
			return nil, err
		}
		out[i] = KNNResult{Object: obj, Distance: dist}
	}
	return out, nil
}

// PlainKNN computes the ground-truth k nearest neighbors by squared L2
// distance — the oracle secure runs are checked against.
func PlainKNN(rel *Relation, point []int64, k int) ([]KNNResult, error) {
	d, err := rel.toDataset()
	if err != nil {
		return nil, err
	}
	objs, dists, err := knn.PlainKNN(d, point, k)
	if err != nil {
		return nil, err
	}
	out := make([]KNNResult, len(objs))
	for i := range objs {
		out[i] = KNNResult{Object: objs[i], Distance: dists[i]}
	}
	return out, nil
}

// hostedKNN is one kNN record store this data cloud answers queries for.
type hostedKNN struct {
	client *cloud.Client
	engine *knn.Engine
	er     *EncryptedKNNRelation
}

func (h *hostedKNN) kind() (string, Workload) { return "kNN store", WorkloadKNN }

func (h *hostedKNN) close() { h.client.Close() }

// execute re-validates the token against the hosted store, then runs the
// SkNN protocol.
func (h *hostedKNN) execute(ctx context.Context, req Request, _ queryConfig) (*Answer, error) {
	tk := req.KNN
	if err := h.er.validateQuery(tk.point, tk.k); err != nil {
		return nil, err
	}
	items, err := h.engine.Query(ctx, tk.point, tk.k)
	if err != nil {
		return nil, err
	}
	return &Answer{KNN: &EncryptedKNNResult{items: items}}, nil
}

// HostKNN registers an encrypted kNN relation under id: it confirms (via
// a Hello round) that the connected crypto cloud serves the relation,
// then builds the S1 kNN engine for it. The ID shares one namespace with
// every other hosted kind.
func (d *DataCloud) HostKNN(ctx context.Context, id string, er *EncryptedKNNRelation) error {
	if id == "" || er == nil {
		return secerr.New(secerr.CodeBadRequest, "sectopk: missing relation id or kNN relation")
	}
	return d.host(ctx, id, er.pk, func(client *cloud.Client) (hosted, error) {
		engine, err := knn.NewEngine(client, er.db, er.maxScoreBits)
		if err != nil {
			return nil, err
		}
		return &hostedKNN{client: client, engine: engine, er: er}, nil
	})
}
