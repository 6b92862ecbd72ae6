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
// A data cloud proves each relation it hosts is served with a Hello
// round before issuing protocol methods for it; the wire version is
// checked once, at the connection preface.
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
	MethodHello  = "Hello"
	MethodEqBits = "EqBits"
	// MethodRecover named the round that stripped the Damgård-Jurik
	// layer of Algorithm 5's selections. S2 no longer serves it (it
	// answers unknown_method); the name is kept only because
	// benchmark/seams.go lists it among the per-method ledger rows.
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
	// set (the crypto cloud holds no relation state to mutate) and S2
	// refuses it as an unknown method; exactly-once semantics come from
	// the idempotency key inside the delta, on the client plane.
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

// HelloRequest names the relation the caller intends to query, so an
// unknown relation is refused up front instead of failing mid-round. ""
// names none: the round is then empty, and the benchmark times it as the
// link's round trip. The wire version is the connection preface's alone.
type HelloRequest struct {
	Relation string
}

// MarshalBinary: string(Relation).
func (m HelloRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	return w.Finish()
}

func (m *HelloRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*m = HelloRequest{Relation: r.String("Relation")}
	return r.Finish()
}

// HelloReply confirms the relation; it carries nothing.
type HelloReply = wire.Empty

// GadgetRequest is one round of the hidden-bit gadget, shared by
// MethodEqBits and MethodCompareHidden. Per bit k, Cts[k*Group :
// (k+1)*Group] are the ciphertexts S2 reads the bit from — EHL
// differences, t_k = 1 iff any of them is zero (EqBits), or one
// sign-blinded difference Enc(±r(2a-2b-1)) whose sign is t_k
// (CompareHidden, Group 1) — and Pay[k*Width : (k+1)*Width] are the
// payloads Enc(d + r) the bit scales, each blinded with a fresh Enc(r).
// S2 applies the bit it reads: it answers Enc(t_k) and Enc(t_k*(d + r))
// for every payload, so neither party learns the bit.
//
// The column section (EqBits with Group 1 only) makes the bits an R×Cols
// matrix of zero tests, Cts row-major: the bit of row r is t_r = Σ_c
// t_rc, that of column c is t_c = Σ_r t_rc. Of a row's Width payloads
// the last Cross cross: S2 sums them into the column the row matches
// instead of scaling them. Each column carries ColWidth payloads in
// ColPay, the last ColCross of which cross into rows the same way.
type GadgetRequest struct {
	Relation string
	Width    int        // payloads per bit, per row of a matrix
	Group    int        // tests per bit
	Cts      []*big.Int // Paillier ciphertexts, Group per bit
	Pay      []*big.Int // Paillier ciphertexts, Width per bit
	Cross    int        // of a row's payloads, how many cross into its column
	Cols     int        // matrix columns; 0 without a column section
	ColWidth int        // payloads per column
	ColCross int        // of a column's payloads, how many cross into its row
	ColPay   []*big.Int // Paillier ciphertexts, ColWidth per column
}

// MarshalBinary: string(Relation) uvarint(Width) uvarint(Group), Cts and
// Pay as integer lists, uvarint(Cross) uvarint(Cols) uvarint(ColWidth)
// uvarint(ColCross), then ColPay as an integer list.
func (m GadgetRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	w.Int("Width", m.Width)
	w.Int("Group", m.Group)
	w.Bigs("Cts", m.Cts)
	w.Bigs("Pay", m.Pay)
	w.Int("Cross", m.Cross)
	w.Int("Cols", m.Cols)
	w.Int("ColWidth", m.ColWidth)
	w.Int("ColCross", m.ColCross)
	w.Bigs("ColPay", m.ColPay)
	return w.Finish()
}

func (m *GadgetRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*m = GadgetRequest{Relation: r.String("Relation"), Width: r.Int("Width"), Group: r.Int("Group"), Cts: r.Bigs("Cts"), Pay: r.Bigs("Pay"),
		Cross: r.Int("Cross"), Cols: r.Int("Cols"), ColWidth: r.Int("ColWidth"), ColCross: r.Int("ColCross"), ColPay: r.Bigs("ColPay")}
	return r.Finish()
}

// GadgetReply carries, per bit, Enc(t) in Bits and in Cts the bit's Width
// payloads re-randomized (t = 1) or fresh encryptions of zero (t = 0).
// For a matrix, Bits holds Enc(t_rc) per cell, row-major, and no bit per
// row or column; per row, Cts holds its scaled payloads, then one sum per
// crossing column payload; per column, ColCts holds its scaled payloads,
// then one sum per crossing row payload.
type GadgetReply struct {
	Bits   []*big.Int // Paillier ciphertexts, one per bit (cell)
	Cts    []*big.Int // Paillier ciphertexts, Width - Cross + ColCross per bit (row)
	ColCts []*big.Int // Paillier ciphertexts, ColWidth - ColCross + Cross per column
}

// MarshalBinary: Bits, Cts, then ColCts, as integer lists.
func (m GadgetReply) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Bigs("Bits", m.Bits)
	w.Bigs("Cts", m.Cts)
	w.Bigs("ColCts", m.ColCts)
	return w.Finish()
}

func (m *GadgetReply) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*m = GadgetReply{Bits: r.Bigs("Bits"), Cts: r.Bigs("Cts"), ColCts: r.Bigs("ColCts")}
	return r.Finish()
}

// CompareRequest carries sign-blinded differences Enc(±r(2a-2b-1)); S2
// reports each sign. The ±1 flip chosen by S1 hides the true order from
// S2, and the blinded magnitude hides the values.
type CompareRequest struct {
	Relation string
	Cts      []*big.Int
}

// MarshalBinary: string(Relation), then Cts as an integer list.
func (m CompareRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
	w.Bigs("Cts", m.Cts)
	return w.Finish()
}

func (m *CompareRequest) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	*m = CompareRequest{Relation: r.String("Relation"), Cts: r.Bigs("Cts")}
	return r.Finish()
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

// MultRequest carries additively blinded factor pairs Enc(a-r_a),
// Enc(b-r_b) for the standard two-party multiplication gadget (the
// batched best-bound computation), or, with B empty, blinded operands
// Enc(a-r) to square (the secure kNN baseline of Section 11.3). A B of
// any other length than A's is refused.
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

// MultReply carries Enc((a-r_a)(b-r_b)), or Enc((a-r)^2) for a square;
// S1 strips the cross terms homomorphically.
type MultReply struct {
	Products []*big.Int
}

// MarshalBinary: Products as an integer list.
func (m MultReply) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.Bigs("Products", m.Products)
	return w.Finish()
}

func (m *MultReply) UnmarshalBinary(b []byte) error {
	r := wire.NewReader(b)
	m.Products = r.Bigs("Products")
	return r.Finish()
}

// DedupMode selects the behaviour of protocols.SecDedup. It never
// travels: S1 runs Replace mode through the gadget, and the one Dedup
// round S2 serves is Merge.
type DedupMode int

const (
	// DedupReplace is Algorithm 7 (SecDedup): duplicates are replaced in
	// place with random ids and sentinel scores, preserving list length.
	// S1 runs it through the hidden-bit gadget (protocols.SecDedup), not
	// as a Dedup round.
	DedupReplace DedupMode = iota
	// DedupMerge eliminates duplicates while homomorphically summing the
	// designated score columns into the surviving row, leaking the
	// uniqueness pattern (the kept count) to S1: with no columns it is
	// Section 10.1's SecDupElim, and Qry_E and Qry_Ba merge each object's
	// worst score and seen indicators with it.
	DedupMerge
)

var dedupModeNames = [...]string{DedupReplace: "replace", DedupMerge: "merge"}

func (m DedupMode) String() string {
	if m < 0 || int(m) >= len(dedupModeNames) {
		return "unknown"
	}
	return dedupModeNames[m]
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

// DedupRequest is one SecDedup round in Merge mode. PairI/PairJ/PairCts
// list the equality ciphertexts Enc(b_ij) = EHL(o_i) ⊖ EHL(o_j) for the
// pair set S1 wants examined (the new rows against each other and
// against the tracked list).
type DedupRequest struct {
	Relation   string
	Rows       []WireRow
	PairI      []int
	PairJ      []int
	PairCts    []*big.Int
	EphemeralN *big.Int // S1's ephemeral Paillier modulus (for blind updates)
	// MergeCols lists the Scores columns to sum across a duplicate group;
	// all other columns keep the representative's value, and with none the
	// round only eliminates.
	MergeCols []int
}

// MarshalBinary: string(Relation), the rows (count, then per row the EHL,
// Scores and Blinds integer lists), PairI and PairJ as uvarint lists,
// PairCts as an integer list, EphemeralN, MergeCols as a uvarint list.
func (m DedupRequest) MarshalBinary() ([]byte, error) {
	var w wire.Writer
	w.String(m.Relation)
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
		Rows:       readRows(r),
		PairI:      r.Ints("PairI"),
		PairJ:      r.Ints("PairJ"),
		PairCts:    r.Bigs("PairCts"),
		EphemeralN: r.Big("EphemeralN"),
		MergeCols:  r.Ints("MergeCols"),
	}
	return r.Finish()
}

// DedupReply returns the re-blinded, re-permuted rows, duplicates gone.
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

func (r *GadgetRequest) relationID() string  { return r.Relation }
func (r *CompareRequest) relationID() string { return r.Relation }
func (r *MultRequest) relationID() string    { return r.Relation }
func (r *DedupRequest) relationID() string   { return r.Relation }
func (r *FilterRequest) relationID() string  { return r.Relation }

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
