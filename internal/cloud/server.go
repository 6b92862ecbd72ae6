package cloud

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/dj"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/secerr"
	"repro/internal/transport"
	"repro/internal/zmath"
)

// KeyMaterial is the secret key material the data owner provisions to the
// crypto cloud S2 (Algorithm 2 line 10): the Paillier key pair and the
// derived degree-2 Damgård-Jurik key.
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
	djEnc  dj.Encryptor
	close  []func()
}

// NewServer builds S2 from its key material. ledger may be nil. Call Close
// when done to release the background nonce pools.
func NewServer(keys *KeyMaterial, ledger *Ledger, opts ...Option) (*Server, error) {
	if keys == nil || keys.Paillier == nil || keys.DJ == nil {
		return nil, errors.New("cloud: incomplete key material")
	}
	cfg := buildConfig(opts)
	s := &Server{keys: keys, ledger: ledger}
	// S2 holds both private keys, so its surfaces default to the CRT
	// nonce fast path (fast-nonce table when opted in).
	pkEnc, err := cfg.newPaillierEnc(&keys.Paillier.PublicKey, keys.Paillier)
	if err != nil {
		return nil, err
	}
	s.pkEnc, s.close = pkEnc, append(s.close, pkEnc.Close)
	djEnc, err := cfg.newDJEnc(&keys.DJ.PublicKey, keys.DJ)
	if err != nil {
		s.Close()
		return nil, err
	}
	s.djEnc, s.close = djEnc, append(s.close, djEnc.Close)
	return s, nil
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

// eqBits decrypts each randomized EHL difference and answers E2(t),
// t = 1 iff the difference is zero (Algorithm 4, server side). The
// decryptions and the reply encryptions each fan out over the worker pool.
func (s *Server) eqBits(ctx context.Context, req *EqBitsRequest) (*EqBitsReply, error) {
	ms, err := s.decryptRaw(req.Cts, "EqBits")
	if err != nil {
		return nil, err
	}
	ts := make([]*big.Int, len(ms))
	equal := 0
	for i, m := range ms {
		if m.Sign() == 0 {
			ts[i] = zmath.One
			equal++
		} else {
			ts[i] = zmath.Zero
		}
	}
	out := make([]*big.Int, len(ts))
	err = parallel.ForEachCtx(ctx, len(ts), func(i int) error {
		ct, err := s.djEnc.Encrypt(ts[i])
		if err != nil {
			return err
		}
		out[i] = ct.C
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.ledger.Record("S2", MethodEqBits, "equality pattern: %d equal of %d pairs", equal, len(req.Cts))
	return &EqBitsReply{Bits: out}, nil
}

// recover strips the outer DJ layer from each blinded double encryption
// (Algorithm 5, server side) and re-randomizes what it found: S1 knows the
// blind it applied, so a reply sent back as decrypted would unblind to the
// very ciphertext S1 put under the outer layer and tell it which branch of
// a selection won.
func (s *Server) recover(req *RecoverRequest) (*RecoverReply, error) {
	wrapped := make([]*dj.Ciphertext, len(req.Cts))
	for i, c := range req.Cts {
		if c == nil {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: Recover: nil ciphertext at %d", i)
		}
		wrapped[i] = &dj.Ciphertext{C: c}
	}
	inner, err := s.keys.DJ.DecryptInnerBatch(wrapped)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Recover")
	}
	if inner, err = paillier.RerandomizeBatch(s.pkEnc, inner); err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Recover")
	}
	out := make([]*big.Int, len(inner))
	for i, ct := range inner {
		out[i] = ct.C
	}
	s.ledger.Record("S2", MethodRecover, "recovered %d blinded ciphertexts", len(req.Cts))
	return &RecoverReply{Cts: out}, nil
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

// compareHidden is compare with the result bit re-encrypted under DJ so
// S1 learns nothing either.
func (s *Server) compareHidden(ctx context.Context, req *CompareHiddenRequest) (*CompareHiddenReply, error) {
	ms, err := s.decryptRaw(req.Cts, "CompareHidden")
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, len(ms))
	err = parallel.ForEachCtx(ctx, len(ms), func(i int) error {
		t := zmath.Zero
		if zmath.IsNegative(ms[i], s.keys.Paillier.N) {
			t = zmath.One
		}
		ct, err := s.djEnc.Encrypt(t)
		if err != nil {
			return err
		}
		out[i] = ct.C
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.ledger.Record("S2", MethodCompareHidden, "compared %d blinded differences (hidden)", len(req.Cts))
	return &CompareHiddenReply{Bits: out}, nil
}

// mult decrypts blinded factor pairs and returns the encrypted products;
// S1 strips the cross terms.
func (s *Server) mult(ctx context.Context, req *MultRequest) (*MultReply, error) {
	if len(req.A) != len(req.B) {
		return nil, secerr.New(secerr.CodeBadRequest, "cloud: Mult length mismatch %d vs %d", len(req.A), len(req.B))
	}
	for i := range req.A {
		if req.A[i] == nil || req.B[i] == nil {
			return nil, secerr.New(secerr.CodeBadRequest, "cloud: Mult: nil ciphertext at %d", i)
		}
	}
	pk := &s.keys.Paillier.PublicKey
	out := make([]*big.Int, len(req.A))
	err := parallel.ForEachCtx(ctx, len(req.A), func(i int) error {
		a, err := s.keys.Paillier.Decrypt(&paillier.Ciphertext{C: req.A[i]})
		if err != nil {
			return fmt.Errorf("cloud: Mult a[%d]: %w", i, err)
		}
		b, err := s.keys.Paillier.Decrypt(&paillier.Ciphertext{C: req.B[i]})
		if err != nil {
			return fmt.Errorf("cloud: Mult b[%d]: %w", i, err)
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
	s.ledger.Record("S2", MethodMult, "multiplied %d blinded pairs", len(req.A))
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

// dedup is the S2 side of SecDedup (Algorithm 7 lines 16-31) and its
// SecDupElim / merge variants. Rows arrive blinded and permuted by S1;
// the equality pattern of the permuted pair set is the only thing S2
// learns (the leakage EP^d of Section 9). The pair decryptions, sentinel
// construction, and re-blinding all fan out over the worker pool.
func (s *Server) dedup(ctx context.Context, req *DedupRequest) (*DedupReply, error) {
	if err := s.validateDedup(req); err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: Dedup")
	}
	pk := &s.keys.Paillier.PublicKey
	ephPK, err := ephemeralKey(pk, req.EphemeralN)
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

	// Assemble the surviving rows (pre re-blinding).
	var rows []WireRow
	for i := 0; i < n; i++ {
		root := uf.find(i)
		members := groups[root]
		isRep := members[0] == i
		switch req.Mode {
		case DedupReplace:
			if isRep {
				rows = append(rows, req.Rows[i])
				continue
			}
			repl, err := sentinelRow(pk, len(req.Rows[i].EHL), len(req.Rows[i].Scores))
			if err != nil {
				return nil, err
			}
			rows = append(rows, *repl)
		case DedupEliminate:
			if isRep {
				rows = append(rows, req.Rows[i])
			}
		case DedupMerge:
			if !isRep {
				continue
			}
			merged := req.Rows[i]
			if len(members) > 1 {
				mergedCopy := WireRow{
					EHL:    append([]*big.Int(nil), merged.EHL...),
					Scores: append([]*big.Int(nil), merged.Scores...),
					Blinds: append([]*big.Int(nil), merged.Blinds...),
				}
				for _, col := range req.MergeCols {
					for _, other := range members[1:] {
						// Homomorphic sum of blinded scores...
						mergedCopy.Scores[col] = mulModN2(pk, mergedCopy.Scores[col], req.Rows[other].Scores[col])
						// ...and of their blinds under the ephemeral key.
						bIdx := len(merged.EHL) + col
						mergedCopy.Blinds[bIdx] = mulModN2(ephPK, mergedCopy.Blinds[bIdx], req.Rows[other].Blinds[bIdx])
					}
				}
				merged = mergedCopy
			}
			rows = append(rows, merged)
		default:
			return nil, fmt.Errorf("cloud: unknown dedup mode %d", req.Mode)
		}
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

// ephemeralKey rebuilds S1's ephemeral public key from the modulus a
// request carries, refusing any width but |N| + ephemeralBits: a narrower
// one would wrap blind records silently, a wider one buys S2 an
// exponentiation as wide as the peer cares to make it.
func ephemeralKey(pk *paillier.PublicKey, n *big.Int) (*paillier.PublicKey, error) {
	if want := pk.N.BitLen() + ephemeralBits; n == nil || n.BitLen() != want {
		return nil, secerr.New(secerr.CodeBadRequest, "cloud: ephemeral modulus missing or not %d bits", want)
	}
	ephPK, err := paillier.NewPublicKeyFromN(n)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cloud: ephemeral key")
	}
	return ephPK, nil
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

// sentinelRow builds the replacement row for a duplicate in Replace mode:
// uniformly random id digests and sentinel scores Z = N-1, as nonce-1
// encryptions (1+N)^m with nonce-1 zero blinds. It hides nothing yet: the
// re-blinding every reply row goes through puts fresh randomness and a
// recorded blind on each slot, after which S1 cannot tell it from a kept
// row.
func sentinelRow(pk *paillier.PublicKey, ehlWidth, scoreCols int) (*WireRow, error) {
	row := WireRow{
		EHL:    make([]*big.Int, ehlWidth),
		Scores: make([]*big.Int, scoreCols),
		Blinds: make([]*big.Int, ehlWidth+scoreCols),
	}
	embed := func(m *big.Int) *big.Int {
		m = new(big.Int).Mul(m, pk.N)
		return m.Add(m, zmath.One)
	}
	for j := range row.EHL {
		u, err := zmath.RandInt(rand.Reader, pk.N)
		if err != nil {
			return nil, err
		}
		row.EHL[j] = embed(u)
	}
	for j := range row.Scores {
		row.Scores[j] = embed(new(big.Int).Sub(pk.N, zmath.One))
	}
	for j := range row.Blinds {
		row.Blinds[j] = zmath.One
	}
	return &row, nil
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
	ephPK, err := ephemeralKey(pk, req.EphemeralN)
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
