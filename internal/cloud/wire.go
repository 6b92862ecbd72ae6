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
//
// Every message below is its own encoding.BinaryMarshaler/Unmarshaler
// (which is what transport.Encode/Decode call): its fields in declaration
// order, written with the primitives of internal/wire. The layout of each
// is the comment on its MarshalBinary.
package cloud

import (
	"math/big"

	"repro/internal/wire"
)

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

// MarshalBinary: count, then per item string(Method) bytes(Body) — the
// item bodies as they were encoded, concatenated, not encoded again.
func (m BatchRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Uvarint(uint64(len(m.Items)))
	for _, it := range m.Items {
		w.String(it.Method)
		w.Bytes(it.Body)
	}
	return w.Finish()
}

func (m *BatchRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Items = nil
	if n := r.Count("Items", 2); n > 0 {
		m.Items = make([]BatchItem, n)
	}
	for i := range m.Items {
		m.Items[i] = BatchItem{Method: r.String("Method"), Body: r.Bytes("Body")}
	}
	return r.Finish()
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

// MarshalBinary: count, then per result bytes(Body) string(ErrCode)
// string(ErrMsg).
func (m BatchReply) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Uvarint(uint64(len(m.Items)))
	for _, it := range m.Items {
		w.Bytes(it.Body)
		w.String(it.ErrCode)
		w.String(it.ErrMsg)
	}
	return w.Finish()
}

func (m *BatchReply) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Items = nil
	if n := r.Count("Items", 3); n > 0 {
		m.Items = make([]BatchResult, n)
	}
	for i := range m.Items {
		m.Items[i] = BatchResult{Body: r.Bytes("Body"), ErrCode: r.String("ErrCode"), ErrMsg: r.String("ErrMsg")}
	}
	return r.Finish()
}

// HelloRequest opens a connection: the caller announces the wire protocol
// version it speaks and, optionally, the relation it intends to query, so
// incompatible peers and unknown relations are rejected up front instead
// of failing mid-round.
type HelloRequest struct {
	Version  int
	Relation string // optional: "" checks only the version
}

// MarshalBinary: uvarint(Version) string(Relation).
func (m HelloRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Int("Version", m.Version)
	w.String(m.Relation)
	return w.Finish()
}

func (m *HelloRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*m = HelloRequest{Version: r.Int("Version"), Relation: r.String("Relation")}
	return r.Finish()
}

// HelloReply confirms the handshake: the responder's version and, when
// the request named a relation, that relation echoed back as confirmed
// (never the full registry — peers cannot enumerate other tenants). Nil
// from a single-relation Server, which accepts any relation ID.
type HelloReply struct {
	Version   int
	Relations []string
}

// MarshalBinary: uvarint(Version), count, then each relation as a string.
func (m HelloReply) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Int("Version", m.Version)
	w.Uvarint(uint64(len(m.Relations)))
	for _, rel := range m.Relations {
		w.String(rel)
	}
	return w.Finish()
}

func (m *HelloReply) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*m = HelloReply{Version: r.Int("Version")}
	if n := r.Count("Relations", 1); n > 0 {
		m.Relations = make([]string, n)
	}
	for i := range m.Relations {
		m.Relations[i] = r.String("Relations")
	}
	return r.Finish()
}

// The four ciphertext-list requests share one layout, string(Relation)
// then the integer list, and the four ciphertext-list replies another, the
// integer list alone.

func marshalCtsRequest(relation string, cts []*big.Int) ([]byte, error) {
	var w wire.Writer
	w.String(relation)
	w.Bigs("Cts", cts)
	return w.Finish()
}

func unmarshalCtsRequest(b []byte) (string, []*big.Int, error) {
	r := wire.NewReader(b)
	relation, cts := r.String("Relation"), r.Bigs("Cts")
	return relation, cts, r.Finish()
}

func marshalCts(what string, cts []*big.Int) ([]byte, error) {
	var w wire.Writer
	w.Bigs(what, cts)
	return w.Finish()
}

func unmarshalCts(what string, b []byte) ([]*big.Int, error) {
	r := wire.NewReader(b)
	cts := r.Bigs(what)
	return cts, r.Finish()
}

// EqBitsRequest carries randomized EHL differences Enc(b_i) (outputs of
// the ⊖ operator). S2 decrypts each and answers with E2(t_i), t_i = 1 iff
// b_i = 0 (the two objects were equal), per Algorithm 4 lines 11-13.
type EqBitsRequest struct {
	Relation string
	Cts      []*big.Int // Paillier ciphertexts
}

// MarshalBinary: string(Relation), then Cts as an integer list.
func (m EqBitsRequest) MarshalBinary() ([]byte, error) { return marshalCtsRequest(m.Relation, m.Cts) }

func (m *EqBitsRequest) UnmarshalBinary(b []byte) (err error) {
	m.Relation, m.Cts, err = unmarshalCtsRequest(b)
	return err
}

// EqBitsReply carries the hidden equality bits E2(t_i).
type EqBitsReply struct {
	Bits []*big.Int // Damgård-Jurik ciphertexts
}

// MarshalBinary: Bits as an integer list.
func (m EqBitsReply) MarshalBinary() ([]byte, error) { return marshalCts("Bits", m.Bits) }

func (m *EqBitsReply) UnmarshalBinary(b []byte) (err error) {
	m.Bits, err = unmarshalCts("Bits", b)
	return err
}

// RecoverRequest carries blinded double encryptions E2(Enc(c+r)); S2
// strips the outer layer (Algorithm 5).
type RecoverRequest struct {
	Relation string
	Cts      []*big.Int // DJ ciphertexts
}

// MarshalBinary: string(Relation), then Cts as an integer list.
func (m RecoverRequest) MarshalBinary() ([]byte, error) { return marshalCtsRequest(m.Relation, m.Cts) }

func (m *RecoverRequest) UnmarshalBinary(b []byte) (err error) {
	m.Relation, m.Cts, err = unmarshalCtsRequest(b)
	return err
}

// RecoverReply carries the inner Paillier ciphertexts Enc(c+r).
type RecoverReply struct {
	Cts []*big.Int
}

// MarshalBinary: Cts as an integer list.
func (m RecoverReply) MarshalBinary() ([]byte, error) { return marshalCts("Cts", m.Cts) }

func (m *RecoverReply) UnmarshalBinary(b []byte) (err error) {
	m.Cts, err = unmarshalCts("Cts", b)
	return err
}

// CompareRequest carries sign-blinded differences Enc(±r(2a-2b-1)); S2
// reports each sign. The ±1 flip chosen by S1 hides the true order from
// S2, and the blinded magnitude hides the values.
type CompareRequest struct {
	Relation string
	Cts      []*big.Int
}

// MarshalBinary: string(Relation), then Cts as an integer list.
func (m CompareRequest) MarshalBinary() ([]byte, error) { return marshalCtsRequest(m.Relation, m.Cts) }

func (m *CompareRequest) UnmarshalBinary(b []byte) (err error) {
	m.Relation, m.Cts, err = unmarshalCtsRequest(b)
	return err
}

// CompareReply reports, for each input, whether the decrypted value is
// negative under the signed interpretation.
type CompareReply struct {
	Neg []bool
}

// MarshalBinary: count, then Neg as a bitset of ⌈count/8⌉ bytes, least
// significant bit first, padding bits zero.
func (m CompareReply) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Bools(m.Neg)
	return w.Finish()
}

func (m *CompareReply) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Neg = r.Bools("Neg")
	return r.Finish()
}

// CompareHiddenRequest is CompareRequest for the oblivious variant: the
// sign comes back encrypted so not even S1 learns the order (used inside
// EncSort compare-exchange gates).
type CompareHiddenRequest struct {
	Relation string
	Cts      []*big.Int
}

// MarshalBinary: string(Relation), then Cts as an integer list.
func (m CompareHiddenRequest) MarshalBinary() ([]byte, error) {
	return marshalCtsRequest(m.Relation, m.Cts)
}

func (m *CompareHiddenRequest) UnmarshalBinary(b []byte) (err error) {
	m.Relation, m.Cts, err = unmarshalCtsRequest(b)
	return err
}

// CompareHiddenReply carries E2(neg_i).
type CompareHiddenReply struct {
	Bits []*big.Int
}

// MarshalBinary: Bits as an integer list.
func (m CompareHiddenReply) MarshalBinary() ([]byte, error) { return marshalCts("Bits", m.Bits) }

func (m *CompareHiddenReply) UnmarshalBinary(b []byte) (err error) {
	m.Bits, err = unmarshalCts("Bits", b)
	return err
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

// MarshalBinary: string(Relation), then A and B as integer lists.
func (m MultRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	w.Bigs("A", m.A)
	w.Bigs("B", m.B)
	return w.Finish()
}

func (m *MultRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*m = MultRequest{Relation: r.String("Relation"), A: r.Bigs("A"), B: r.Bigs("B")}
	return r.Finish()
}

// MultReply carries Enc((a+r_a)(b+r_b)); S1 strips the cross terms
// homomorphically.
type MultReply struct {
	Products []*big.Int
}

// MarshalBinary: Products as an integer list.
func (m MultReply) MarshalBinary() ([]byte, error) { return marshalCts("Products", m.Products) }

func (m *MultReply) UnmarshalBinary(b []byte) (err error) {
	m.Products, err = unmarshalCts("Products", b)
	return err
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

// MarshalBinary: string(Relation) uvarint(Mode), the rows (count, then per
// row the EHL, Scores and Blinds integer lists), PairI and PairJ as uvarint
// lists, PairCts as an integer list, EphemeralN, MergeCols as a uvarint
// list.
func (m DedupRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	w.Int("Mode", int(m.Mode))
	writeRows(&w, m.Rows)
	w.Ints("PairI", m.PairI)
	w.Ints("PairJ", m.PairJ)
	w.Bigs("PairCts", m.PairCts)
	w.Big("EphemeralN", m.EphemeralN)
	w.Ints("MergeCols", m.MergeCols)
	return w.Finish()
}

func (m *DedupRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*m = DedupRequest{
		Relation:   r.String("Relation"),
		Mode:       DedupMode(r.Int("Mode")),
		Rows:       readRows(r),
		PairI:      r.Ints("PairI"),
		PairJ:      r.Ints("PairJ"),
		PairCts:    r.Bigs("PairCts"),
		EphemeralN: r.Big("EphemeralN"),
		MergeCols:  r.Ints("MergeCols"),
	}
	return r.Finish()
}

// DedupReply returns the re-blinded, re-permuted rows. In Replace mode the
// row count is unchanged; in Eliminate/Merge modes duplicates are gone.
type DedupReply struct {
	Rows []WireRow
}

// MarshalBinary: the rows, as in DedupRequest.
func (m DedupReply) MarshalBinary() ([]byte, error) { return marshalRows(m.Rows) }

func (m *DedupReply) UnmarshalBinary(b []byte) (err error) {
	m.Rows, err = unmarshalRows(b)
	return err
}

func marshalRows(rows []WireRow) ([]byte, error) {
	var w wire.Writer
	writeRows(&w, rows)
	return w.Finish()
}

func unmarshalRows(b []byte) ([]WireRow, error) {
	r := wire.NewReader(b)
	rows := readRows(r)
	return rows, r.Finish()
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

// MarshalBinary: string(Relation), the rows as in DedupRequest, Tests as
// an integer list, EphemeralN.
func (m FilterRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	writeRows(&w, m.Rows)
	w.Bigs("Tests", m.Tests)
	w.Big("EphemeralN", m.EphemeralN)
	return w.Finish()
}

func (m *FilterRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*m = FilterRequest{
		Relation:   r.String("Relation"),
		Rows:       readRows(r),
		Tests:      r.Bigs("Tests"),
		EphemeralN: r.Big("EphemeralN"),
	}
	return r.Finish()
}

// FilterReply returns the surviving rows, re-blinded and re-permuted.
type FilterReply struct {
	Rows []WireRow
}

// MarshalBinary: the rows, as in DedupRequest.
func (m FilterReply) MarshalBinary() ([]byte, error) { return marshalRows(m.Rows) }

func (m *FilterReply) UnmarshalBinary(b []byte) (err error) {
	m.Rows, err = unmarshalRows(b)
	return err
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

// writeRows appends a row list: the count, then per row its EHL, Scores
// and Blinds integer lists.
func writeRows(w *wire.Writer, rows []WireRow) {
	w.Uvarint(uint64(len(rows)))
	for i := range rows {
		w.Bigs("EHL", rows[i].EHL)
		w.Bigs("Scores", rows[i].Scores)
		w.Bigs("Blinds", rows[i].Blinds)
	}
}

func readRows(r *wire.Reader) []WireRow {
	n := r.Count("Rows", 3) // three list counts at the least
	if n == 0 {
		return nil
	}
	out := make([]WireRow, n)
	for i := range out {
		out[i] = WireRow{EHL: r.Bigs("EHL"), Scores: r.Bigs("Scores"), Blinds: r.Bigs("Blinds")}
		if r.Err() != nil {
			return nil
		}
	}
	return out
}
