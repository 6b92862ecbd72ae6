package cloud

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/dj"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/secerr"
	"repro/internal/transport"
	"repro/internal/zmath"
)

// KeyMaterial is the secret key material the data owner provisions to the
// crypto cloud S2 (Algorithm 2 line 10): the Paillier key pair. S2 works
// under Paillier alone; the derived degree-2 Damgård-Jurik key is kept
// only for the benchmark's DJ kernel rows (benchmark/seams.go).
type KeyMaterial struct {
	Paillier *paillier.PrivateKey
	DJ       *dj.PrivateKey
}

// NewKeyMaterial generates fresh key material with the given Paillier
// modulus size.
func NewKeyMaterial(bits int) (*KeyMaterial, error) {
	sk, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	return KeyMaterialFromPaillier(sk)
}

// KeyMaterialFromPaillier derives the DJ key from an existing Paillier key.
func KeyMaterialFromPaillier(sk *paillier.PrivateKey) (*KeyMaterial, error) {
	djSK, err := dj.NewPrivateKey(sk, 2)
	if err != nil {
		return nil, err
	}
	return &KeyMaterial{Paillier: sk, DJ: djSK}, nil
}

// Server is the crypto cloud S2. It implements transport.Responder; each
// Serve call is one protocol round. The server is stateless across rounds
// apart from the leakage ledger and the nonce-precompute pools.
//
// Every per-ciphertext loop in the handlers runs on the shared parallel
// substrate, bounded by GOMAXPROCS; encryptions draw from background
// nonce pools unless the server was built at GOMAXPROCS 1.
type Server struct {
	keys   *KeyMaterial
	ledger *Ledger
	pkEnc  paillier.Encryptor
	close  []func()

	// ephKeys holds the ephemeral keys of the last few S1 clients, so a
	// key's nonce table is built once per client, not once per round.
	ephKeys ephemeralKeys
}

// NewServer builds S2 from its key material. ledger may be nil. Call Close
// when done to release the background nonce pools.
func NewServer(keys *KeyMaterial, ledger *Ledger) (*Server, error) {
	if keys == nil || keys.Paillier == nil {
		return nil, errors.New("cloud: incomplete key material")
	}
	pkEnc := newEnc(&keys.Paillier.PublicKey)
	return &Server{keys: keys, ledger: ledger, pkEnc: pkEnc, close: []func(){pkEnc.Close}}, nil
}

// Close stops the server's background nonce pools. The server stays usable
// afterwards (encryptions compute nonces inline).
func (s *Server) Close() {
	for _, c := range s.close {
		c()
	}
	s.close = nil
}

// Ledger returns the server's leakage ledger (may be nil).
func (s *Server) Ledger() *Ledger { return s.ledger }

// decryptRaw decrypts a batch of raw ciphertext values in parallel via
// the paillier batch helper. Nil or out-of-group values — the body is
// attacker-controlled bytes, and a caller in this process can hand over
// anything — surface as bad-request errors, never panics.
func (s *Server) decryptRaw(cts []*big.Int, label string) ([]*big.Int, error) {
	wrapped := make([]*paillier.Ciphertext, len(cts))
	for i, c := range cts {
		if c == nil {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: %s: nil ciphertext at %d", label, i)
		}
		wrapped[i] = &paillier.Ciphertext{C: c}
	}
	out, err := s.keys.Paillier.DecryptBatch(wrapped)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: %s", label)
	}
	return out, nil
}

// zeroTests answers, for every raw ciphertext, whether it encrypts zero,
// from one prime's half of a decryption (paillier.PrivateKey.IsZero),
// with decryptRaw's refusals.
func (s *Server) zeroTests(ctx context.Context, cts []*big.Int, label string) ([]bool, error) {
	for i, c := range cts {
		if c == nil {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: %s: nil ciphertext at %d", label, i)
		}
	}
	return parallel.MapErrCtx(ctx, cts, func(i int, c *big.Int) (bool, error) {
		z, err := s.keys.Paillier.IsZero(&paillier.Ciphertext{C: c})
		if err != nil {
			return false, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: %s: zero test %d", label, i)
		}
		return z, nil
	})
}

// Serve implements transport.Responder for a single-relation deployment:
// the relation ID carried by requests is accepted verbatim. Multi-relation
// deployments wrap Servers in a Service, which routes on the relation ID.
func (s *Server) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	return serve(ctx, s, method, body)
}

func (s *Server) route(string) (*Server, error) { return s, nil }

// hello answers the version-check round. A single-relation Server serves
// whatever relation the peer names, so only the version is checked.
func (s *Server) hello(req *HelloRequest) (*HelloReply, error) {
	if err := acceptVersion(req.Version); err != nil {
		return nil, err
	}
	return &HelloReply{Version: transport.ProtocolVersion}, nil
}

// acceptVersion refuses a peer announcing any wire version but this
// build's.
func acceptVersion(v int) error {
	if v != transport.ProtocolVersion {
		return secerr.New(secerr.CodeProtocolVersion,
			"cloud: peer speaks wire protocol v%d, this side v%d only", v, transport.ProtocolVersion)
	}
	return nil
}

// serveBatch unwraps a batch envelope and serves every item as a round of
// its own, fanning items out over the worker budget. Item
// failures are reported per item as structured (code, message) pairs —
// one malformed item never fails its neighbours — and envelopes must not
// nest.
func serveBatch(ctx context.Context, r responder, body []byte) ([]byte, error) {
	var req BatchRequest
	if err := decodeBody(MethodBatch, body, &req); err != nil {
		return nil, err
	}
	reply := BatchReply{Items: make([]BatchResult, len(req.Items))}
	err := parallel.ForEachCtx(ctx, len(req.Items), func(i int) error {
		item := req.Items[i]
		if item.Method == MethodBatch {
			reply.Items[i] = BatchResult{ErrCode: string(secerr.CodeBadRequest), ErrMsg: "cloud: nested batch envelope"}
			return nil
		}
		out, herr := serve(ctx, r, item.Method, item.Body)
		if herr != nil {
			reply.Items[i] = BatchResult{ErrCode: string(secerr.CodeOf(herr)), ErrMsg: herr.Error()}
			return nil
		}
		reply.Items[i] = BatchResult{Body: out}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return transport.Encode(&reply)
}

// gadget is the S2 side of the hidden-bit gadget, one handler for both of
// its method rows. For bit k it decrypts the Group ciphertexts
// Cts[k*Group : (k+1)*Group] and reads t_k — the sign for CompareHidden
// (t = 1 iff negative, Group 1), the zero test for EqBits (t = 1 iff any
// of the group's EHL differences is zero, Algorithm 4 lines 11-13; a
// group wider than one is SecDedup's OR over a row's earlier rows) — then
// answers Enc(t_k) and, for each of the bit's payloads, the payload
// re-randomized (t = 1) or a fresh Enc(0) (t = 0). A plain round is a
// matrix of one column with no column payloads; with a column section
// each cell is a bit, a scaled payload is raised to its row's (column's)
// t = Σ t_rc, and a crossing payload is summed into every cell it
// matches, Π_r pay_r^{t_rc} per column (Π_c pay_c^{t_rc} per row): one
// factor where the matrix has a match, none where it has not. Every reply
// ciphertext carries a nonce power S2 drew, so S1 cannot tell which way a
// bit went; every payload is blinded, so S2 learns nothing it did not
// learn from the tests alone. The whole request is checked before
// anything is decrypted: an error that depended on a bit would tell S1
// the bit.
func (s *Server) gadget(ctx context.Context, method string, req *GadgetRequest) (*GadgetReply, error) {
	rows, cols, err := gadgetShape(method, req)
	if err != nil {
		return nil, err
	}
	grp, w := req.Group, req.Width
	n2 := s.keys.Paillier.N2
	for _, side := range []struct {
		what string
		pay  []*big.Int
	}{{"payload", req.Pay}, {"column payload", req.ColPay}} {
		for i, c := range side.pay {
			if c == nil || c.Sign() <= 0 || c.Cmp(n2) >= 0 {
				return nil, secerr.New(secerr.CodeBadRequest, "cloud: %s: %s %d is not a ciphertext", method, side.what, i)
			}
		}
	}
	ts := make([]bool, rows*cols)
	zeros := 0
	if method == MethodEqBits {
		zs, err := s.zeroTests(ctx, req.Cts, method)
		if err != nil {
			return nil, err
		}
		for i, z := range zs {
			if z {
				ts[i/grp] = true
				zeros++
			}
		}
	} else {
		ms, err := s.decryptRaw(req.Cts, method)
		if err != nil {
			return nil, err
		}
		for i, m := range ms {
			ts[i] = zmath.IsNegative(m, s.keys.Paillier.N)
		}
	}
	set := 0
	for _, t := range ts {
		if t {
			set++
		}
	}
	rowScaled, colScaled := w-req.Cross, req.ColWidth-req.ColCross
	rowW, colW := rowScaled+req.ColCross, colScaled+req.Cross
	out := &GadgetReply{Bits: make([]*big.Int, rows*cols), Cts: make([]*big.Int, rows*rowW)}
	items := rows
	if req.Cols > 0 {
		out.ColCts = make([]*big.Int, cols*colW)
		items += cols
	}
	// Item i < rows is row i, item rows + c column c.
	err = parallel.ForEachCtx(ctx, items, func(i int) error {
		if i < rows {
			matches := ts[i*cols : (i+1)*cols]
			for c, match := range matches {
				t := zmath.Zero
				if match {
					t = zmath.One
				}
				bit, err := s.pkEnc.Encrypt(t)
				if err != nil {
					return err
				}
				out.Bits[i*cols+c] = bit.C
			}
			return s.answerItem(out.Cts[i*rowW:(i+1)*rowW], matches, req.Pay[i*w:(i+1)*w], rowScaled, req.ColPay, req.ColWidth)
		}
		c := i - rows
		matches := make([]bool, rows)
		for r := range matches {
			matches[r] = ts[r*cols+c]
		}
		return s.answerItem(out.ColCts[c*colW:(c+1)*colW], matches, req.ColPay[c*req.ColWidth:(c+1)*req.ColWidth], colScaled, req.Pay, w)
	})
	if err != nil {
		return nil, err
	}
	switch {
	case req.Cols > 0:
		s.ledger.Record("S2", method, "equality matrix: %d×%d cells, %d equal, %d blinded payloads a row and %d a column", rows, cols, set, w, req.ColWidth)
	case method == MethodEqBits:
		s.ledger.Record("S2", method, "equality pattern: %d equal of %d bits, %d zero tests in groups of %d, %d blinded payloads each", set, rows, zeros, grp, w)
	default:
		s.ledger.Record("S2", method, "compared %d blinded differences (hidden), %d blinded payloads each", rows, w)
	}
	return out, nil
}

// gadgetShape checks a gadget request's shape against its method and
// returns its rows and columns: a plain round's bits are the rows of one
// column. It multiplies no claimed count, so no count can wrap, and it
// bounds the crossing sums, the one part of a reply the request does not
// pay for ciphertext by ciphertext: each side's number at most twice the
// request's ciphertexts.
func gadgetShape(method string, req *GadgetRequest) (rows, cols int, err error) {
	grp, w := req.Group, req.Width
	matrix := req.Cols > 0 || req.Cross > 0 || req.ColWidth > 0 || req.ColCross > 0 || len(req.ColPay) > 0
	switch {
	case grp < 1 || grp != 1 && (method != MethodEqBits || matrix):
		return 0, 0, secerr.New(secerr.CodeBadRequest, "cloud: %s: groups of %d tests", method, grp)
	case matrix && method != MethodEqBits:
		return 0, 0, secerr.New(secerr.CodeBadRequest, "cloud: %s: a column section", method)
	case matrix && (req.Cols < 1 || len(req.Cts) == 0 || req.Cross > w || req.ColCross > req.ColWidth):
		return 0, 0, secerr.New(secerr.CodeBadRequest, "cloud: %s: a matrix of %d columns over %d cells, %d of %d row payloads and %d of %d column payloads crossing", method, req.Cols, len(req.Cts), req.Cross, w, req.ColCross, req.ColWidth)
	case !matrix && w < 1:
		return 0, 0, secerr.New(secerr.CodeBadRequest, "cloud: %s: width %d", method, w)
	}
	cols = max(req.Cols, 1)
	cells := len(req.Cts) / grp
	rows = cells / cols
	if cells*grp != len(req.Cts) || rows*cols != cells || !isProduct(len(req.Pay), rows, w) || !isProduct(len(req.ColPay), req.Cols, req.ColWidth) {
		return 0, 0, secerr.New(secerr.CodeBadRequest, "cloud: %s: %d tests, %d payloads and %d column payloads for %d columns of bits of %d tests, width %d and column width %d",
			method, len(req.Cts), len(req.Pay), len(req.ColPay), cols, grp, w, req.ColWidth)
	}
	if in := len(req.Cts) + len(req.Pay) + len(req.ColPay); matrix && (req.ColCross > 2*in/rows || req.Cross > 2*in/cols) {
		return 0, 0, secerr.New(secerr.CodeBadRequest, "cloud: %s: %d rows of %d crossing sums and %d columns of %d for %d request ciphertexts", method, rows, req.ColCross, cols, req.Cross, in)
	}
	return rows, cols, nil
}

// isProduct reports whether n = a*b, without forming a*b.
func isProduct(n, a, b int) bool {
	if a == 0 {
		return n == 0
	}
	return n%a == 0 && n/a == b
}

// answerItem fills reply with one matrix item's answers, given whether
// it matches each item of the other side: its first scaled payloads of
// own, each times its bit, the number of its matches, then one sum per
// crossing payload of the other side, of the matching items' (other holds
// otherW payloads an item, the crossing ones last). Every answer is the
// product of the payloads its matches select, under a nonce of S2's own.
func (s *Server) answerItem(reply []*big.Int, matches []bool, own []*big.Int, scaled int, other []*big.Int, otherW int) error {
	crossFrom := otherW - (len(reply) - scaled) // where the other side's crossing payloads start
	for j := range reply {
		var factors []*big.Int
		for x, m := range matches {
			switch {
			case !m:
			case j < scaled:
				factors = append(factors, own[j])
			default:
				factors = append(factors, other[x*otherW+crossFrom+j-scaled])
			}
		}
		var err error
		if reply[j], err = s.product(factors); err != nil {
			return err
		}
	}
	return nil
}

// product returns the product of the ciphertexts mod N^2 under a nonce
// power of S2's own, a fresh Enc(0) for none.
func (s *Server) product(factors []*big.Int) (*big.Int, error) {
	if len(factors) == 0 {
		ct, err := s.pkEnc.EncryptZero()
		if err != nil {
			return nil, err
		}
		return ct.C, nil
	}
	acc := factors[0]
	if len(factors) > 1 {
		acc = s.keys.Paillier.EngineN2().ProdMod(factors)
	}
	ct, err := s.pkEnc.Rerandomize(&paillier.Ciphertext{C: acc})
	if err != nil {
		return nil, err
	}
	return ct.C, nil
}

// compare decrypts each sign-blinded difference and reports its sign.
func (s *Server) compare(req *CompareRequest) (*CompareReply, error) {
	ms, err := s.decryptRaw(req.Cts, "Compare")
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(ms))
	for i, m := range ms {
		out[i] = zmath.IsNegative(m, s.keys.Paillier.N)
	}
	s.ledger.Record("S2", MethodCompare, "compared %d blinded differences", len(req.Cts))
	return &CompareReply{Neg: out}, nil
}

// mult decrypts blinded factor pairs and returns the encrypted products,
// or, for a request with no B, squares each blinded operand from one
// decryption; S1 strips the cross terms.
func (s *Server) mult(ctx context.Context, req *MultRequest) (*MultReply, error) {
	square := len(req.B) == 0
	if !square && len(req.A) != len(req.B) {
		return nil, secerr.New(secerr.CodeBadRequest, "cloud: Mult length mismatch %d vs %d", len(req.A), len(req.B))
	}
	for i := range req.A {
		if req.A[i] == nil || !square && req.B[i] == nil {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: Mult: nil ciphertext at %d", i)
		}
	}
	pk := &s.keys.Paillier.PublicKey
	out := make([]*big.Int, len(req.A))
	err := parallel.ForEachCtx(ctx, len(req.A), func(i int) error {
		a, err := s.keys.Paillier.Decrypt(&paillier.Ciphertext{C: req.A[i]})
		if err != nil {
			return secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Mult a[%d]", i)
		}
		b := a
		if !square {
			if b, err = s.keys.Paillier.Decrypt(&paillier.Ciphertext{C: req.B[i]}); err != nil {
				return secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Mult b[%d]", i)
			}
		}
		ct, err := s.pkEnc.Encrypt(pk.EngineN().MulMod(a, b))
		if err != nil {
			return err
		}
		out[i] = ct.C
		return nil
	})
	if err != nil {
		return nil, err
	}
	if square {
		s.ledger.Record("S2", MethodMult, "squared %d blinded operands", len(req.A))
	} else {
		s.ledger.Record("S2", MethodMult, "multiplied %d blinded pairs", len(req.A))
	}
	return &MultReply{Products: out}, nil
}

// unionFind is a tiny disjoint-set for grouping equal rows.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		if ra < rb {
			u.parent[rb] = ra
		} else {
			u.parent[ra] = rb
		}
	}
}

func (s *Server) validateDedup(req *DedupRequest) error {
	if req.Mode != DedupEliminate && req.Mode != DedupMerge {
		// Replace mode never shrinks the list, so it needs no blind
		// records: S1 runs it through the gadget (protocols.SecDedup).
		return fmt.Errorf("cloud: Dedup serves the eliminate and merge modes, not %s", req.Mode)
	}
	n := len(req.Rows)
	if len(req.PairI) != len(req.PairJ) || len(req.PairI) != len(req.PairCts) {
		return errors.New("cloud: Dedup pair arrays have mismatched lengths")
	}
	for k := range req.PairI {
		if req.PairI[k] < 0 || req.PairI[k] >= n || req.PairJ[k] < 0 || req.PairJ[k] >= n {
			return fmt.Errorf("cloud: Dedup pair %d out of range", k)
		}
		if req.PairCts[k] == nil {
			return fmt.Errorf("cloud: Dedup pair %d has nil ciphertext", k)
		}
	}
	for i, r := range req.Rows {
		if len(r.Blinds) != len(r.EHL)+len(r.Scores) {
			return fmt.Errorf("cloud: Dedup row %d blind vector length %d != %d slots",
				i, len(r.Blinds), len(r.EHL)+len(r.Scores))
		}
		if err := validateRow(&r, i); err != nil {
			return err
		}
		if n > 0 && (len(r.EHL) != len(req.Rows[0].EHL) || len(r.Scores) != len(req.Rows[0].Scores)) {
			return fmt.Errorf("cloud: Dedup row %d shape differs from row 0", i)
		}
	}
	if req.Mode == DedupMerge {
		cols := 0
		if n > 0 {
			cols = len(req.Rows[0].Scores)
		}
		for _, c := range req.MergeCols {
			if c < 0 || c >= cols {
				return fmt.Errorf("cloud: Dedup merge column %d out of range", c)
			}
		}
	}
	return nil
}

// dedup is the S2 side of SecDupElim (Section 10.1) and of its merge
// variant, on Algorithm 7's blind records (lines 16-31): the two modes
// that shrink the list. Replace mode is refused: it keeps every row, so
// S1 runs it through the gadget instead. Rows arrive blinded and permuted
// by S1; the equality pattern of the permuted pair set is the only thing
// S2 learns (the leakage EP^d of Section 9). The pair decryptions and the
// re-blinding fan out over the worker pool.
func (s *Server) dedup(ctx context.Context, req *DedupRequest) (*DedupReply, error) {
	if err := s.validateDedup(req); err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Dedup")
	}
	pk := &s.keys.Paillier.PublicKey
	ephPK, err := s.ephKeys.get(pk, req.EphemeralN)
	if err != nil {
		return nil, err
	}
	n := len(req.Rows)
	pairMs, err := s.decryptRaw(req.PairCts, "Dedup pair")
	if err != nil {
		return nil, err
	}
	uf := newUnionFind(n)
	equalPairs := 0
	for k, m := range pairMs {
		if m.Sign() == 0 {
			uf.union(req.PairI[k], req.PairJ[k])
			equalPairs++
		}
	}
	// Group rows; the representative is the smallest index in the
	// (already random) permuted order, so the choice carries no signal.
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := uf.find(i)
		groups[r] = append(groups[r], i)
	}
	s.ledger.Record("S2", MethodDedup, "mode=%s rows=%d equal-pairs=%d groups=%d",
		req.Mode, n, equalPairs, len(groups))

	// Keep each group's representative (pre re-blinding); in Merge mode it
	// carries the group's sum in every merge column.
	var rows []WireRow
	for i := 0; i < n; i++ {
		members := groups[uf.find(i)]
		if members[0] != i {
			continue
		}
		kept := req.Rows[i]
		if req.Mode == DedupMerge && len(members) > 1 {
			kept = WireRow{
				EHL:    append([]*big.Int(nil), kept.EHL...),
				Scores: append([]*big.Int(nil), kept.Scores...),
				Blinds: append([]*big.Int(nil), kept.Blinds...),
			}
			for _, col := range req.MergeCols {
				for _, other := range members[1:] {
					// Homomorphic sum of blinded scores...
					kept.Scores[col] = mulModN2(pk, kept.Scores[col], req.Rows[other].Scores[col])
					// ...and of their blinds under the ephemeral key.
					bIdx := len(kept.EHL) + col
					kept.Blinds[bIdx] = mulModN2(ephPK, kept.Blinds[bIdx], req.Rows[other].Blinds[bIdx])
				}
			}
		}
		rows = append(rows, kept)
	}

	// Re-blind every surviving row (Algorithm 7 lines 26-30) so S1 cannot
	// tell which rows were touched, then re-permute (line 31).
	out, err := s.reblindAndPermute(ctx, pk, ephPK, rows)
	if err != nil {
		return nil, err
	}
	return &DedupReply{Rows: out}, nil
}

// ephemeralBits is how much wider than N S1's ephemeral modulus is, and
// reblindBits how much wider than N the range S2 draws a re-blind from.
// A recorded blind is the integer alpha + delta (a sum of up to 2^20
// alphas after a merge) with alpha < N S1's own blind; delta below
// N*2^reblindBits leaves that sum below N*(2^40 + 2^20) < N_e, so nothing
// wraps before S1 reduces mod N, and masks alpha statistically: whatever
// alpha was, the sum S1 decrypts lies in [alpha, alpha + N*2^40), which
// excludes no row's alpha except with probability about 2^-40.
const (
	ephemeralBits = 64
	reblindBits   = 40
)

// ephemeralKeyCap bounds ephemeralKeys: a key's table is 295 KiB at the
// benchmark's 320-bit ephemeral modulus and 6.7 MiB at 2112 bits (a
// 2048-bit relation key's).
const ephemeralKeyCap = 8

// ephemeralKeys is S2's bounded map from an S1 ephemeral modulus to its
// rebuilt public key, least recently used first out. Each S1 client
// keeps one ephemeral key for its lifetime and sends it on every
// Dedup/Filter round.
type ephemeralKeys struct {
	mu   sync.Mutex
	keys []*paillier.PublicKey // most recently used first
}

// get rebuilds S1's ephemeral public key from the modulus a request
// carries, or returns the cached one, refusing any width but |N| +
// ephemeralBits (a narrower one would wrap blind records silently, a
// wider one buys S2 an exponentiation as wide as the peer cares to make
// it) and any modulus NewPublicKeyFromN refuses (a square or a prime has
// no nonce base).
func (c *ephemeralKeys) get(pk *paillier.PublicKey, n *big.Int) (*paillier.PublicKey, error) {
	if want := pk.N.BitLen() + ephemeralBits; n == nil || n.BitLen() != want {
		return nil, secerr.New(secerr.CodeBadRequest, "cloud: ephemeral modulus missing or not %d bits", want)
	}
	if k := c.lookup(n, nil); k != nil {
		return k, nil
	}
	ephPK, err := paillier.NewPublicKeyFromN(n)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: ephemeral key")
	}
	return c.lookup(n, ephPK), nil
}

// lookup returns the cached key of modulus n and moves it to the front.
// On a miss it caches add, evicting the least recently used key, and
// returns it (nil when add is nil): two rounds that missed at once keep
// the first key built.
func (c *ephemeralKeys) lookup(n *big.Int, add *paillier.PublicKey) *paillier.PublicKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, k := range c.keys {
		if k.N.Cmp(n) == 0 {
			copy(c.keys[1:i+1], c.keys[:i])
			c.keys[0] = k
			return k
		}
	}
	if add != nil {
		c.keys = append([]*paillier.PublicKey{add}, c.keys[:min(len(c.keys), ephemeralKeyCap-1)]...)
	}
	return add
}

// reblindAndPermute re-blinds every row (row-per-worker) and returns them
// under a fresh random permutation.
func (s *Server) reblindAndPermute(ctx context.Context, pk, ephPK *paillier.PublicKey, rows []WireRow) ([]WireRow, error) {
	err := parallel.ForEachCtx(ctx, len(rows), func(i int) error {
		return s.reblindRow(pk, ephPK, &rows[i])
	})
	if err != nil {
		return nil, err
	}
	perm, err := prf.RandomPerm(len(rows))
	if err != nil {
		return nil, err
	}
	out := make([]WireRow, len(rows))
	for i := range rows {
		out[perm[i]] = rows[i]
	}
	return out, nil
}

// mulModN2 multiplies two ciphertext group elements mod pk.N^2 through the
// key's reduction engine, returning the canonical residue.
func mulModN2(pk *paillier.PublicKey, a, b *big.Int) *big.Int {
	return pk.EngineN2().MulMod(a, b)
}

// reblindRow adds a fresh additive blind delta to every slot of the row —
// delta mod N under the main key, delta as drawn under the ephemeral key,
// multiplied into the recorded blind — re-randomizing all ciphertexts in
// the process.
func (s *Server) reblindRow(pk, ephPK *paillier.PublicKey, row *WireRow) error {
	bound := new(big.Int).Lsh(pk.N, reblindBits)
	apply := func(slot, blind **big.Int) error {
		delta, err := zmath.RandInt(rand.Reader, bound)
		if err != nil {
			return err
		}
		dct, err := s.pkEnc.Encrypt(delta)
		if err != nil {
			return err
		}
		*slot = mulModN2(pk, *slot, dct.C)
		bct, err := ephPK.Encrypt(delta)
		if err != nil {
			return err
		}
		*blind = mulModN2(ephPK, *blind, bct.C)
		return nil
	}
	for j := range row.EHL {
		if err := apply(&row.EHL[j], &row.Blinds[j]); err != nil {
			return err
		}
	}
	for j := range row.Scores {
		if err := apply(&row.Scores[j], &row.Blinds[len(row.EHL)+j]); err != nil {
			return err
		}
	}
	return nil
}

// filter is the S2 side of SecFilter (Algorithm 12 lines 11-23): drop the
// rows whose zero-test ciphertext — the join score times a random unit —
// decrypts to zero, then re-blind and re-permute the survivors exactly as
// dedup does. The test plaintexts are dropped once read.
func (s *Server) filter(ctx context.Context, req *FilterRequest) (*FilterReply, error) {
	if len(req.Tests) != len(req.Rows) {
		return nil, secerr.New(secerr.CodeBadRequest, "cloud: Filter has %d tests for %d rows", len(req.Tests), len(req.Rows))
	}
	pk := &s.keys.Paillier.PublicKey
	ephPK, err := s.ephKeys.get(pk, req.EphemeralN)
	if err != nil {
		return nil, err
	}
	for i := range req.Rows {
		r := &req.Rows[i]
		if len(r.Scores) == 0 || len(r.Blinds) != len(r.Scores) || len(r.EHL) != 0 {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: Filter row %d malformed", i)
		}
		if err := validateRow(r, i); err != nil {
			return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Filter")
		}
	}
	tests, err := s.decryptRaw(req.Tests, "Filter test")
	if err != nil {
		return nil, err
	}
	var rows []WireRow
	for i, m := range tests {
		if m.Sign() != 0 { // zero: did not satisfy the join condition
			rows = append(rows, req.Rows[i])
		}
	}
	s.ledger.Record("S2", MethodFilter, "joined %d of %d candidate tuples", len(rows), len(req.Rows))
	out, err := s.reblindAndPermute(ctx, pk, ephPK, rows)
	if err != nil {
		return nil, err
	}
	return &FilterReply{Rows: out}, nil
}

// validateRow rejects rows carrying nil slots anywhere a hostile peer
// could hide one; the re-blinding paths do raw big.Int arithmetic on
// these values and must never see a nil.
func validateRow(r *WireRow, i int) error {
	for j, v := range r.EHL {
		if v == nil {
			return fmt.Errorf("cloud: row %d EHL slot %d is nil", i, j)
		}
	}
	for j, v := range r.Scores {
		if v == nil {
			return fmt.Errorf("cloud: row %d score column %d is nil", i, j)
		}
	}
	for j, v := range r.Blinds {
		if v == nil {
			return fmt.Errorf("cloud: row %d blind %d is nil", i, j)
		}
	}
	return nil
}
