package sectopk

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/join"
	"repro/internal/mutate"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/secerr"
	"repro/internal/shard"
)

// Relation is a plaintext table: n rows of m integer attributes. All
// attributes must be non-negative and bounded by the owner's
// WithMaxScoreBits setting.
type Relation struct {
	Name string
	Rows [][]int64
}

// toDataset converts to the internal representation.
func (r *Relation) toDataset() (*dataset.Relation, error) {
	if r == nil {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: nil relation")
	}
	rel := &dataset.Relation{Name: r.Name, Rows: r.Rows}
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	return rel, nil
}

// GenerateDataset deterministically generates one of the evaluation
// datasets (insurance, diabetes, PAMAP, synthetic) scaled to exactly the
// requested row count (which may exceed the spec's published size).
func GenerateDataset(name string, rows int, seed int64) (*Relation, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("sectopk: dataset rows must be positive, got %d", rows)
	}
	var spec dataset.Spec
	switch strings.ToLower(name) {
	case "insurance":
		spec = dataset.Insurance()
	case "diabetes":
		spec = dataset.Diabetes()
	case "pamap":
		spec = dataset.PAMAP()
	case "synthetic":
		spec = dataset.Synthetic()
	default:
		return nil, fmt.Errorf("sectopk: unknown dataset %q (want insurance, diabetes, pamap, or synthetic)", name)
	}
	rel, err := dataset.Generate(spec.WithN(rows), seed)
	if err != nil {
		return nil, err
	}
	return &Relation{Name: rel.Name, Rows: rel.Rows}, nil
}

// Query describes one top-k query: the attribute set, optional
// non-negative weights (nil weighs every attribute 1), and k.
type Query struct {
	Attrs   []int
	Weights []int64
	K       int
}

// Result is one revealed top-k answer: the object's row index in the
// original relation and its accumulated (worst) score.
type Result struct {
	Object int
	Score  int64
}

// Traffic summarizes wire usage: request/response rounds and bytes in
// both directions. Answers produced by the serving plane additionally
// carry the span fields below; they stay zero on the cumulative
// connection-level accessors (DataCloud.Traffic, Client.Traffic). Like
// Rounds and Bytes, S2Calls is measured as a delta on shared per-process
// counters, so it is approximate when requests execute concurrently;
// FanOut, MergeFallbacks and Epoch come from the execution itself.
type Traffic struct {
	Rounds int64
	Bytes  int64
	// S2Calls counts the protocol calls this execution shipped to the
	// crypto cloud (the batch scheduler coalesces many into one round).
	S2Calls int64
	// FanOut is the parallel width the query spread over: the relation's
	// shard count locally, or the member count through a cluster front
	// door. 0 when not applicable (join/kNN, cumulative Traffic).
	FanOut int
	// MergeFallbacks counts merge-bound certification failures that
	// forced an exact rescan during this execution (0 or 1), as the
	// query's own engine reported it.
	MergeFallbacks int64
	// Epoch is the relation epoch the query answered over (0 when the
	// workload is not epoch-versioned).
	Epoch uint64
}

// EncryptedRelation is an outsourced relation: one or more encrypted
// shards (P round-robin partitions, each a complete set of encrypted
// sorted lists under globally unique object ids) plus the public key
// they were encrypted under (public material — safe to hand to the data
// cloud). Unsharded relations are the P = 1 case.
//
// A relation carries its placement: the global shard count and the
// global index of each shard it holds. One from Encrypt holds 0..P-1;
// one cut by Subset is a cluster member's share (HostShards).
type EncryptedRelation struct {
	sh *shard.Relation
	pk *paillier.PublicKey
	// mst, when non-nil, is the relation's mutable state: the epoch, the
	// id space high-water mark, and the tombstone tails behind sh's live
	// views. A freshly encrypted relation has none (nil = epoch-1 state
	// with no tombstones); mutableState materializes it.
	mst *mutate.Relation
	// total and indices place a share: the global shard count and the
	// global index of each shard held, aligned with sh.Shards. indices
	// is nil for a whole relation, which holds 0..P-1 in order.
	total   int
	indices []int
}

// newEncryptedRelation wraps mutable state at a placement (nil indices:
// the whole relation). A placement of every shard in order is the whole
// relation.
func newEncryptedRelation(st *mutate.Relation, pk *paillier.PublicKey, total int, indices []int) (*EncryptedRelation, error) {
	sh, err := shard.New(st.LiveShards())
	if err != nil {
		return nil, err
	}
	er := &EncryptedRelation{sh: sh, pk: pk, mst: st}
	for i, ix := range indices {
		if ix != i || total != len(indices) {
			er.total, er.indices = total, indices
			break
		}
	}
	return er, nil
}

// placement returns the relation's global shard count and the global
// index of each shard it holds.
func (er *EncryptedRelation) placement() (total int, indices []int) {
	if er.indices != nil {
		return er.total, er.indices
	}
	indices = make([]int, len(er.sh.Shards))
	for i := range indices {
		indices[i] = i
	}
	return len(indices), indices
}

// Subset cuts a cluster member's share out of the relation: the shards at
// the given global indices, in that order, with the relation's mutable
// state — its epoch, its id space and the shards' tombstone tails. The
// indices must be distinct and held by er; the full set 0..P-1 in order
// is the whole relation. Only public/encrypted material is shared.
func (er *EncryptedRelation) Subset(indices ...int) (*EncryptedRelation, error) {
	if len(indices) == 0 {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: subset selects no shards")
	}
	st, err := er.mutableState()
	if err != nil {
		return nil, err
	}
	total, held := er.placement()
	at := make(map[int]int, len(held))
	for i, ix := range held {
		at[ix] = i
	}
	shards := make([]*mutate.Shard, len(indices))
	for i, ix := range indices {
		pos, ok := at[ix]
		if !ok {
			return nil, secerr.New(secerr.CodeBadRequest,
				"sectopk: shard index %d is repeated or not among the held %v of %d", ix, held, total)
		}
		delete(at, ix)
		shards[i] = st.Shards[pos]
	}
	sub := &mutate.Relation{Epoch: st.Epoch, IDSpace: st.IDSpace, Shards: shards}
	return newEncryptedRelation(sub, er.pk, total, append([]int(nil), indices...))
}

// mutableState returns the relation's mutable state, wrapping a fresh
// encryption's shards as epoch-1 state with no tombstones.
func (er *EncryptedRelation) mutableState() (*mutate.Relation, error) {
	if er.mst != nil {
		return er.mst, nil
	}
	return mutate.New(er.sh.Shards, 0)
}

// Epoch returns the relation's mutation epoch (1 for a fresh
// encryption; every applied delta or compaction advances it).
func (er *EncryptedRelation) Epoch() uint64 {
	if er.mst != nil {
		return er.mst.Epoch
	}
	return 1
}

// idSpace is the exclusive upper bound on object ids ever assigned in
// this relation, live or tombstoned — the digest range a revealer must
// cover.
func (er *EncryptedRelation) idSpace() int {
	if er.mst != nil && er.mst.IDSpace > er.sh.N {
		return er.mst.IDSpace
	}
	return er.sh.N
}

// Name returns the relation's name.
func (er *EncryptedRelation) Name() string { return er.sh.Shards[0].Name }

// Rows returns the row count n of the shards held.
func (er *EncryptedRelation) Rows() int { return er.sh.N }

// Attributes returns the attribute count m.
func (er *EncryptedRelation) Attributes() int { return er.sh.M }

// Shards returns the count of shards held: P for a whole relation (1
// when unsharded), a share's own count for a share.
func (er *EncryptedRelation) Shards() int { return len(er.sh.Shards) }

// ByteSize returns the serialized ciphertext size, for storage-overhead
// accounting.
func (er *EncryptedRelation) ByteSize() int64 {
	var total int64
	for _, s := range er.sh.Shards {
		total += s.ByteSize(er.pk)
	}
	return total
}

// Token is a query trapdoor issued by the owner for one encrypted
// relation.
type Token struct {
	tk *core.Token
}

// K returns the query's k.
func (t *Token) K() int { return t.tk.K }

// EncryptedResult is the encrypted outcome of one query: the top-k items
// (ids and scores still encrypted), the scan depth, and whether the
// halting condition fired (false only for depth-capped scans).
type EncryptedResult struct {
	items  []protocols.Item
	Depth  int
	Halted bool
}

// Len returns the number of encrypted result items.
func (r *EncryptedResult) Len() int { return len(r.items) }

// EncryptedJoinRelation is an outsourced join relation (Section 12):
// attribute values EHL-encrypted so the clouds can evaluate equi-join
// conditions homomorphically.
type EncryptedJoinRelation struct {
	er           *join.EncRelation
	pk           *paillier.PublicKey
	ehlS         int
	maxScoreBits int
}

// Name returns the relation's name.
func (er *EncryptedJoinRelation) Name() string { return er.er.Name }

// Rows returns the tuple count.
func (er *EncryptedJoinRelation) Rows() int { return er.er.N }

// Attributes returns the attribute count.
func (er *EncryptedJoinRelation) Attributes() int { return er.er.M }

// JoinQuery describes a secure top-k equi-join:
//
//	SELECT Project1, Project2 FROM R1, R2
//	WHERE R1.JoinAttr1 = R2.JoinAttr2
//	ORDER BY R1.ScoreAttr1 + R2.ScoreAttr2 STOP AFTER K
type JoinQuery struct {
	JoinAttr1, JoinAttr2   int
	ScoreAttr1, ScoreAttr2 int
	Project1, Project2     []int
	K                      int
}

// JoinToken is the join trapdoor for one relation pair.
type JoinToken struct {
	tk *join.Token
}

// K returns the join query's k.
func (t *JoinToken) K() int { return t.tk.K }

// EncryptedJoinResult is the encrypted outcome of one join: the top-k
// joined tuples with encrypted scores and projected attributes.
type EncryptedJoinResult struct {
	tuples []protocols.JoinTuple
}

// Len returns the number of encrypted joined tuples.
func (r *EncryptedJoinResult) Len() int { return len(r.tuples) }

// JoinResult is one revealed joined tuple: the combined score followed by
// the projected attribute values (Project1's then Project2's).
type JoinResult struct {
	Score int64
	Attrs []int64
}

// PlainTopKJoin computes the ground-truth top-k equi-join over plaintext
// relations — the oracle secure runs are checked against.
func PlainTopKJoin(r1, r2 *Relation, q JoinQuery) ([]JoinResult, error) {
	d1, err := r1.toDataset()
	if err != nil {
		return nil, err
	}
	d2, err := r2.toDataset()
	if err != nil {
		return nil, err
	}
	tuples, err := join.PlainTopKJoin(d1, d2, q.JoinAttr1, q.JoinAttr2, q.ScoreAttr1, q.ScoreAttr2, q.Project1, q.Project2, q.K)
	if err != nil {
		return nil, err
	}
	out := make([]JoinResult, len(tuples))
	for i, t := range tuples {
		out[i] = JoinResult{Score: t.Score, Attrs: t.Attrs}
	}
	return out, nil
}
