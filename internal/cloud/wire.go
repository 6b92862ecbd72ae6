// Package cloud implements the two-party runtime of Section 3.2: the
// crypto cloud S2 (Server per relation, Service as the multi-relation
// registry) holding the secret keys, and the data cloud S1's stub
// (Client) that drives the protocol rounds over a transport.
//
// Every exchange is a single request/response round. The Server sees only
// blinded and/or permuted data; each handler records what it learns into a
// leakage Ledger so tests can check the CQA leakage profile of Section 9.
//
// Every protocol request names the relation it operates on (RelationID),
// so one crypto cloud can serve many outsourced relations under distinct
// key material — the deployment shape the paper's Section 3.2 assumes.
// Peers confirm they speak the same wire protocol version with a Hello
// round before issuing protocol methods.
package cloud

import "math/big"

// Method names for the transport layer.
const (
	MethodHello         = "Hello"
	MethodEqBits        = "EqBits"
	MethodRecover       = "Recover"
	MethodCompare       = "Compare"
	MethodCompareHidden = "CompareHidden"
	MethodMult          = "Mult"
	MethodDedup         = "Dedup"
	MethodFilter        = "Filter"
	MethodBatch         = "Batch"
	// MethodApply is the mutation plane's delta application. Unlike the
	// protocol rounds above it has SIDE EFFECTS — it advances a hosted
	// relation's epoch — so it is deliberately absent from S2's handler
	// set (the crypto cloud holds no relation state to mutate) and
	// explicitly non-retryable at the wire layer; exactly-once semantics
	// come from the idempotency key inside the delta, one layer up.
	MethodApply = "Apply"
)

// BatchItem is one coalesced protocol call inside a batch envelope: the
// method name plus its already-encoded request body (which carries its
// own relation ID, so items from different sessions and relations share
// one envelope).
type BatchItem struct {
	Method string
	Body   []byte
}

// BatchRequest is the batch envelope: homomorphic-op requests
// from concurrent sessions coalesced into a single round trip, so S2's
// worker pool sees one large batch instead of per-session dribbles.
// Envelopes must not nest.
type BatchRequest struct {
	Items []BatchItem
}

// BatchResult is one item's outcome: either the encoded reply body or a
// structured (code, message) error pair — per item, so one hostile or
// malformed item cannot fail its co-batched neighbours.
type BatchResult struct {
	Body    []byte
	ErrCode string
	ErrMsg  string
}

// BatchReply carries one BatchResult per request item, in order.
type BatchReply struct {
	Items []BatchResult
}

// HelloRequest opens a connection: the caller announces the wire protocol
// version it speaks and, optionally, the relation it intends to query, so
// incompatible peers and unknown relations are rejected up front instead
// of gob-failing mid-round.
type HelloRequest struct {
	Version  int
	Relation string // optional: "" checks only the version
}

// HelloReply confirms the handshake: the responder's version and, when
// the request named a relation, that relation echoed back as confirmed
// (never the full registry — peers cannot enumerate other tenants). Nil
// from a single-relation Server, which accepts any relation ID.
type HelloReply struct {
	Version   int
	Relations []string
}

// EqBitsRequest carries randomized EHL differences Enc(b_i) (outputs of
// the ⊖ operator). S2 decrypts each and answers with E2(t_i), t_i = 1 iff
// b_i = 0 (the two objects were equal), per Algorithm 4 lines 11-13.
type EqBitsRequest struct {
	Relation string
	Cts      []*big.Int // Paillier ciphertexts
}

// EqBitsReply carries the hidden equality bits E2(t_i).
type EqBitsReply struct {
	Bits []*big.Int // Damgård-Jurik ciphertexts
}

// RecoverRequest carries blinded double encryptions E2(Enc(c+r)); S2
// strips the outer layer (Algorithm 5).
type RecoverRequest struct {
	Relation string
	Cts      []*big.Int // DJ ciphertexts
}

// RecoverReply carries the inner Paillier ciphertexts Enc(c+r).
type RecoverReply struct {
	Cts []*big.Int
}

// CompareRequest carries sign-blinded differences Enc(±r(2a-2b-1)); S2
// reports each sign. The ±1 flip chosen by S1 hides the true order from
// S2, and the blinded magnitude hides the values.
type CompareRequest struct {
	Relation string
	Cts      []*big.Int
}

// CompareReply reports, for each input, whether the decrypted value is
// negative under the signed interpretation.
type CompareReply struct {
	Neg []bool
}

// CompareHiddenRequest is CompareRequest for the oblivious variant: the
// sign comes back encrypted so not even S1 learns the order (used inside
// EncSort compare-exchange gates).
type CompareHiddenRequest struct {
	Relation string
	Cts      []*big.Int
}

// CompareHiddenReply carries E2(neg_i).
type CompareHiddenReply struct {
	Bits []*big.Int
}

// MultRequest carries additively blinded factor pairs Enc(a+r_a),
// Enc(b+r_b) for the standard two-party multiplication gadget (used by
// the secure kNN baseline of Section 11.3 and the batched best-bound
// computation).
type MultRequest struct {
	Relation string
	A        []*big.Int
	B        []*big.Int
}

// MultReply carries Enc((a+r_a)(b+r_b)); S1 strips the cross terms
// homomorphically.
type MultReply struct {
	Products []*big.Int
}

// DedupMode selects the behaviour of the oblivious deduplication round.
type DedupMode int

const (
	// DedupReplace is Algorithm 7 (SecDedup): duplicates are replaced in
	// place with random ids and sentinel scores, preserving list length.
	DedupReplace DedupMode = iota
	// DedupEliminate is Section 10.1 (SecDupElim): duplicates are removed,
	// leaking the uniqueness pattern (the kept count) to S1.
	DedupEliminate
	// DedupMerge eliminates duplicates while homomorphically summing the
	// designated score columns into the surviving row (used by the batched
	// engine to merge per-depth worst-score contributions).
	DedupMerge
)

func (m DedupMode) String() string {
	switch m {
	case DedupReplace:
		return "replace"
	case DedupEliminate:
		return "eliminate"
	case DedupMerge:
		return "merge"
	default:
		return "unknown"
	}
}

// WireRow is one blinded, permuted scored item E(I~) together with its
// blind vector encrypted under S1's ephemeral key (the H_i of Algorithm 7).
// Every blind is additive: a slot encrypts x + b mod N and its record
// encrypts the integer b.
//
// Scores is a flat list of Paillier ciphertexts; by convention column 0 is
// the worst score W and column 1 the best score B, with any further
// columns carrying engine payload (e.g. per-list seen indicators).
// Blinds has one entry per EHL slot followed by one entry per score
// column, all encrypted under the ephemeral modulus.
type WireRow struct {
	EHL    []*big.Int
	Scores []*big.Int
	Blinds []*big.Int
}

// DedupRequest is one SecDedup/SecDupElim round. PairI/PairJ/PairCts list
// the equality ciphertexts Enc(b_ij) = EHL(o_i) ⊖ EHL(o_j) for the pair
// set S1 wants examined (the upper triangle of Algorithm 7's matrix B, or
// a bipartite block inside SecUpdate).
type DedupRequest struct {
	Relation   string
	Mode       DedupMode
	Rows       []WireRow
	PairI      []int
	PairJ      []int
	PairCts    []*big.Int
	EphemeralN *big.Int // S1's ephemeral Paillier modulus (for blind updates)
	// MergeCols lists the Scores columns to sum across a duplicate group in
	// DedupMerge mode; all other columns keep the representative's value.
	MergeCols []int
}

// DedupReply returns the re-blinded, re-permuted rows. In Replace mode the
// row count is unchanged; in Eliminate/Merge modes duplicates are gone.
type DedupReply struct {
	Rows []WireRow
}

// FilterRequest is one SecFilter round (Algorithm 12). Tests[i] encrypts
// row i's join score times a random unit of Z_N — zero iff the tuple did
// not satisfy the join condition, uniform otherwise — and is all S2 reads
// to decide; rows whose test decrypts to zero are dropped.
//
// Scores[0] of a row is the join score and the remaining columns its
// attributes, all additively blinded with one recorded blind each. EHL is
// unused (empty) for join tuples.
type FilterRequest struct {
	Relation   string
	Rows       []WireRow
	Tests      []*big.Int // Paillier ciphertexts, one per row
	EphemeralN *big.Int
}

// FilterReply returns the surviving rows, re-blinded and re-permuted.
type FilterReply struct {
	Rows []WireRow
}

// relationRequest is implemented by every protocol request so the
// multi-relation Service can route a decoded request to the Server
// registered for its relation.
type relationRequest interface{ relationID() string }

func (r *EqBitsRequest) relationID() string        { return r.Relation }
func (r *RecoverRequest) relationID() string       { return r.Relation }
func (r *CompareRequest) relationID() string       { return r.Relation }
func (r *CompareHiddenRequest) relationID() string { return r.Relation }
func (r *MultRequest) relationID() string          { return r.Relation }
func (r *DedupRequest) relationID() string         { return r.Relation }
func (r *FilterRequest) relationID() string        { return r.Relation }
