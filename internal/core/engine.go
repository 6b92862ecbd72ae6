package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"repro/internal/cloud"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/protocols"
	"repro/internal/secerr"
)

// Mode selects the query-processing variant evaluated in Section 11.2.
type Mode int

const (
	// QryF is the fully private baseline: SecDedup (replace mode, marked
	// from SecWorstBest's bits with no round of its own) runs at every
	// depth, and the halting machinery at every depth where a halt is
	// possible (Section 8; firstHaltDepth).
	QryF Mode = iota
	// QryE swaps SecDedup for SecDupElim, shrinking the tracked list and
	// leaking the uniqueness pattern UP^d to S1 (Section 10.1).
	QryE
	// QryBa batches deduplication/sorting/halting every p depths
	// (Section 10.2).
	QryBa
)

func (m Mode) String() string {
	switch m {
	case QryF:
		return "Qry_F"
	case QryE:
		return "Qry_E"
	case QryBa:
		return "Qry_Ba"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures one SecQuery execution.
type Options struct {
	Mode Mode
	// BatchDepth is the batching parameter p (Qry_Ba only); the paper
	// requires p >= k. Zero picks max(2k, 8).
	BatchDepth int
	// MaxDepth caps the scan for benchmarking time-per-depth; zero means
	// scan to completion.
	MaxDepth int
	// ExactScan disables the halting tests: the scan runs to MaxDepth (or
	// the whole relation), so after a full scan every returned score is
	// the exact aggregate. The shard merge uses it as its fallback when
	// the NRA merge-bound check cannot certify an early-halted merge.
	ExactScan bool
	// QueryID, when non-empty, is the run's idempotency key: a
	// re-execution carrying the same QueryID (the client plane retrying
	// after a link failure) counts as the SAME run in the query-pattern
	// ledger instead of inflating the token's repeat count — a retried
	// query is one query, not a pattern of repeats.
	QueryID string
}

// Validate refuses option values no engine path defines — an unknown
// mode, a negative depth, a Qry_Ba batch depth
// below k (Section 10.2) — typed bad_request: peers on the client and
// the cluster wire send these as bare integers, and unchecked a stray
// mode would run (and be ledgered) as Qry_F.
func (o Options) Validate(k int) error {
	switch {
	case o.Mode < QryF || o.Mode > QryBa:
		return secerr.New(secerr.CodeBadRequest, "core: unknown query mode %d", int(o.Mode))
	case o.BatchDepth < 0 || o.MaxDepth < 0:
		return secerr.New(secerr.CodeBadRequest,
			"core: negative depth option (batch depth %d, max depth %d)", o.BatchDepth, o.MaxDepth)
	case o.Mode == QryBa && o.BatchDepth > 0 && o.BatchDepth < k:
		return secerr.New(secerr.CodeBadRequest,
			"core: batch depth p=%d must be >= k=%d (Section 10.2)", o.BatchDepth, k)
	}
	return nil
}

// QueryResult is the outcome of SecQuery: the encrypted top-k items
// (column 0 = worst score), the number of depths scanned, and whether the
// halting condition fired (false only when MaxDepth cut the scan short).
type QueryResult struct {
	Items  []protocols.Item
	Depth  int
	Halted bool
}

// Engine is the data cloud S1's query processor. It is safe for
// concurrent use: sessions multiplexing queries over one engine share
// only the query-pattern ledger, which is mutex-guarded.
type Engine struct {
	client *cloud.Client
	er     *EncryptedRelation

	mu         sync.Mutex // guards seenTokens and seenRuns
	seenTokens map[string]int
	// seenRuns dedupes query-pattern accounting by (token, QueryID) so a
	// retried run does not double-count as a repeated token.
	seenRuns runKeys
}

// runKeysPerGeneration is how many (token, QueryID) keys one generation
// of an Engine's run-key set holds. Every remote query brings a fresh
// key, so the set keeps two generations — the filling one and the one
// before — and drops the older when the filling one is full: at most
// twice this many keys, while a retry, which arrives right after its
// first attempt, still finds its key.
const runKeysPerGeneration = 4096

// runKeys is the bounded set of run keys an Engine has counted.
type runKeys struct {
	cur, prev map[string]struct{}
}

// add records key and reports whether it was new to both generations.
func (r *runKeys) add(key string) bool {
	if _, ok := r.cur[key]; ok {
		return false
	}
	if _, ok := r.prev[key]; ok {
		return false
	}
	if r.cur == nil || len(r.cur) >= runKeysPerGeneration {
		r.prev, r.cur = r.cur, make(map[string]struct{})
	}
	r.cur[key] = struct{}{}
	return true
}

// NewEngine builds the S1 engine for an encrypted relation.
func NewEngine(client *cloud.Client, er *EncryptedRelation) (*Engine, error) {
	if client == nil {
		return nil, errors.New("core: nil client")
	}
	if er == nil || len(er.Lists) == 0 {
		return nil, errors.New("core: empty encrypted relation")
	}
	if er.MaxScoreBits <= 0 {
		return nil, errors.New("core: encrypted relation missing MaxScoreBits")
	}
	return &Engine{client: client, er: er, seenTokens: map[string]int{}}, nil
}

// MagBits bounds |W|, |B| magnitudes for comparison masking. A real W or
// B sums m weighted scores of maxScoreBits bits each, so it lies in
// [0, 2^realBits); a Qry_F row marked as a depth's u-th extra copy
// (protocols.MarkDuplicates) sits u <= m-1 duplicate shifts of 2^realBits
// below its own, which takes mBits more. Exported because the shard merge
// must compare merged candidates under exactly the bound the per-shard
// scans used — a divergent copy would silently break merge soundness.
func MagBits(maxScoreBits int, tk *Token) int {
	realBits, mBits := scoreBits(maxScoreBits, tk)
	return realBits + mBits + 2
}

// scoreBits returns realBits, the bits of any real |W| or |B| under the
// token (ValidateToken refuses negative weights), and mBits, the bits of
// its list count.
func scoreBits(maxScoreBits int, tk *Token) (realBits, mBits int) {
	wBits := 1
	for _, w := range tk.Weights {
		if b := bits.Len64(uint64(w)); b > wBits {
			wBits = b
		}
	}
	mBits = bits.Len(uint(len(tk.Lists)))
	return maxScoreBits + wBits + mBits, mBits
}

func (e *Engine) magBits(tk *Token) int {
	return MagBits(e.er.MaxScoreBits, tk)
}

// SlotBits is the width the engine declares for the gadget payloads of a
// score slot (protocols.Item.ScoreBits) under the comparison bound
// magBits: a W or B lies within ±2^magBits, so a gate's difference of
// two, a marked row's W - u*shift against a real one, or SecUpdate's
// sentinel -1 - g lies within ±2^(magBits+1). Exported because the shard
// merge ranks candidates under the bound the shards used.
func SlotBits(magBits int) int { return magBits + 1 }

// depthBits is the width the engine declares for SecWorstBest's payloads
// (protocols.DepthItem.ScoreBits): a weighted score x_j, and a difference
// x_j^e - bottom_j of two from one list, lies within ±2^(MaxScoreBits +
// wBits).
func (e *Engine) depthBits(tk *Token) int {
	realBits, mBits := scoreBits(e.er.MaxScoreBits, tk)
	return realBits - mBits
}

// duplicateShift is 2^realBits, the amount MarkDuplicates takes off a
// duplicate's W and B per earlier copy: above every real score, so a
// marked row ranks below every real one.
func (e *Engine) duplicateShift(tk *Token) *big.Int {
	realBits, _ := scoreBits(e.er.MaxScoreBits, tk)
	return new(big.Int).Lsh(big.NewInt(1), uint(realBits))
}

// ValidateToken checks a token against the engine's relation without
// executing anything.
func (e *Engine) ValidateToken(tk *Token) error {
	return ValidateToken(tk, len(e.er.Lists), e.er.N)
}

// ValidateToken checks a token's shape against a relation of m lists and
// n rows: the one check the core engine, the sharded engine and the
// cluster coordinator all make. A cluster member, which hosts part of the
// relation and clamps k per shard, passes math.MaxInt for n. Failures
// carry the secerr.ErrInvalidToken code, so callers (and peers across the
// wire) can classify them with errors.Is.
func ValidateToken(tk *Token, m, n int) error {
	if tk == nil {
		return secerr.New(secerr.CodeInvalidToken, "core: nil token")
	}
	if len(tk.Lists) == 0 {
		return secerr.New(secerr.CodeInvalidToken, "core: token selects no lists")
	}
	for _, p := range tk.Lists {
		if p < 0 || p >= m {
			return secerr.New(secerr.CodeInvalidToken, "core: token list position %d out of range", p)
		}
	}
	if tk.Weights != nil && len(tk.Weights) != len(tk.Lists) {
		return secerr.New(secerr.CodeInvalidToken, "core: token has %d weights for %d lists", len(tk.Weights), len(tk.Lists))
	}
	// A negative weight makes a real W negative, where it could fall
	// below a duplicate's marked row and lose its place to it.
	for i, w := range tk.Weights {
		if w < 0 {
			return secerr.New(secerr.CodeInvalidToken, "core: token weight %d is negative (%d)", i, w)
		}
	}
	if tk.K <= 0 || tk.K > n {
		return secerr.New(secerr.CodeInvalidToken, "core: token k=%d out of range", tk.K)
	}
	return nil
}

// recordQueryPattern logs the query-pattern leakage QP (Section 9): S1
// observes whether a token repeats. A non-empty queryID dedupes the
// accounting: a re-execution of an already-counted (token, queryID) run —
// the client plane retrying after a link failure — is the same query
// arriving twice, not a repeated query, so it neither bumps the repeat
// count nor adds a ledger entry.
func (e *Engine) recordQueryPattern(tk *Token, queryID string) {
	h := sha256.New()
	fmt.Fprintf(h, "k=%d;", tk.K)
	for _, l := range tk.Lists {
		fmt.Fprintf(h, "%d,", l)
	}
	for _, w := range tk.Weights {
		fmt.Fprintf(h, "w%d,", w)
	}
	key := string(h.Sum(nil))
	e.mu.Lock()
	if queryID != "" && !e.seenRuns.add(key+"|"+queryID) {
		e.mu.Unlock()
		return
	}
	e.seenTokens[key]++
	repeat := e.seenTokens[key]
	e.mu.Unlock()
	e.client.Ledger().Record("S1", "Token", "query pattern: repeat #%d of this token (m=%d, k=%d)",
		repeat, len(tk.Lists), tk.K)
}

// depthScore returns the (weight-scaled) encrypted score of list li at
// depth d. Weights are applied by S1 via scalar multiplication, per
// Section 7.
func (e *Engine) depthScore(tk *Token, li, d int) (*paillier.Ciphertext, error) {
	item := e.er.Lists[tk.Lists[li]][d]
	if tk.Weights == nil {
		return item.Score, nil
	}
	return e.client.PK().MulConst(item.Score, big.NewInt(tk.Weights[li]))
}

// runInfo captures the engine state a shard merge needs beyond the
// QueryResult: the full tracked list (top items ranked first, the
// QueryResult's Items are its prefix), the final per-list bottom scores,
// and the bound computer for batched items (nil when best bounds are
// stored in ColBest).
type runInfo struct {
	ranked   []protocols.Item
	bottoms  []*paillier.Ciphertext
	best     bestFunc
	fullScan bool
}

// SecQuery executes the top-k query (Algorithm 3) in the requested mode.
// Cancellation is cooperative: the engine checks ctx between protocol
// rounds (and the sub-protocol layers check it inside their worker
// loops), so a canceled query stops within one round.
func (e *Engine) SecQuery(ctx context.Context, tk *Token, opts Options) (*QueryResult, error) {
	if err := e.admit(tk, opts); err != nil {
		return nil, err
	}
	res, _, err := e.run(ctx, tk, opts)
	if err != nil {
		return nil, err
	}
	e.client.Ledger().Record("S1", "Query", "halting depth D_q = %d (halted=%v)", res.Depth, res.Halted)
	return res, nil
}

// admit validates a query's token and options, then records its query
// pattern: a refused query leaves no trace on the ledger.
func (e *Engine) admit(tk *Token, opts Options) error {
	if err := e.ValidateToken(tk); err != nil {
		return err
	}
	if err := opts.Validate(tk.K); err != nil {
		return err
	}
	e.recordQueryPattern(tk, opts.QueryID)
	return nil
}

// run dispatches to the mode's pipeline.
func (e *Engine) run(ctx context.Context, tk *Token, opts Options) (*QueryResult, *runInfo, error) {
	if opts.Mode == QryBa {
		return e.queryBatched(ctx, tk, opts)
	}
	return e.queryPerDepth(ctx, tk, opts)
}

// firstHaltDepth is the first 1-based depth at which NRA's halting test
// can pass on m lists and k answers while the unseen bound U = Σ bottoms
// is positive. At depth d at most m(d−1) objects were seen before d, so
// with k ≥ m(d−1)+2 the top k hold two objects first seen at d; those
// split the depth's lists between them, so the lower worst score is at
// most U/2, and W_k ≥ U needs U = 0. When U = 0 every k-set is a top-k,
// so the query loses no answer by testing from this depth on: it halts
// there or later with a tie-equivalent one. The depth is a function of
// the public (m, k) alone, so skipping the ranking and halting rounds
// below it tells no party anything.
func firstHaltDepth(m, k int) int {
	return 1 + (k-1+m-1)/m
}

// readDepths reads the token's items at depths [from, to) of every
// queried list, weight-scaled and declared at bits (DepthItem.ScoreBits),
// and appends them to the lists' histories.
func (e *Engine) readDepths(ctx context.Context, tk *Token, from, to, bits int, histories []protocols.ListHistory) ([][]protocols.DepthItem, error) {
	m := len(tk.Lists)
	out := make([][]protocols.DepthItem, to-from)
	for t := range out {
		out[t] = make([]protocols.DepthItem, m)
	}
	err := parallel.ForEachCtx(ctx, len(out)*m, func(x int) error {
		t, i := x/m, x%m
		score, err := e.depthScore(tk, i, from+t)
		if err != nil {
			return err
		}
		it := e.er.Lists[tk.Lists[i]][from+t]
		out[t][i] = protocols.DepthItem{EHL: it.EHL, Score: score, ScoreBits: bits}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, items := range out {
		for i, it := range items {
			histories[i].EHLs = append(histories[i].EHLs, it.EHL)
			histories[i].Scores = append(histories[i].Scores, it.Score)
		}
	}
	return out, nil
}

// queryPerDepth is the per-depth pipeline shared by Qry_F and Qry_E. No
// depth below firstHaltDepth ranks or tests for a halt, so every depth up
// to it is certain to run, and their SecWorstBest bits go to S2 in one
// round; each later depth sends its own.
func (e *Engine) queryPerDepth(ctx context.Context, tk *Token, opts Options) (*QueryResult, *runInfo, error) {
	m, k := len(tk.Lists), tk.K
	magBits, shift := e.magBits(tk), e.duplicateShift(tk)
	slot, depthBits := SlotBits(magBits), e.depthBits(tk)
	dedupMode := cloud.DedupReplace
	if opts.Mode == QryE {
		dedupMode = cloud.DedupEliminate
	}
	maxD := e.er.N
	if opts.MaxDepth > 0 && opts.MaxDepth < maxD {
		maxD = opts.MaxDepth
	}
	haltFrom := firstHaltDepth(m, k)
	histories := make([]protocols.ListHistory, m)
	var T []protocols.Item
	// worsts, bests and sames hold SecWorstBest's answers for the depths
	// read but not yet merged into T, the current depth's first.
	var worsts, bests [][]*paillier.Ciphertext
	var sames [][][]*paillier.Ciphertext
	depth := 0
	for d := 0; d < maxD; d++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: depth %d: %w", d, err)
		}
		depth = d + 1
		if len(worsts) == 0 {
			to := d + 1
			if d == 0 {
				to = min(haltFrom, maxD)
			}
			batch, err := e.readDepths(ctx, tk, d, to, depthBits, histories)
			if err != nil {
				return nil, nil, err
			}
			if worsts, bests, sames, err = protocols.SecWorstBestDepths(ctx, e.client, batch, histories); err != nil {
				return nil, nil, fmt.Errorf("core: depth %d SecWorst/SecBest: %w", d, err)
			}
		}
		worst, best, same := worsts[0], bests[0], sames[0]
		worsts, bests, sames = worsts[1:], bests[1:], sames[1:]
		gamma := make([]protocols.Item, m)
		for i := 0; i < m; i++ {
			gamma[i] = protocols.Item{
				EHL:       histories[i].EHLs[d],
				Scores:    []*paillier.Ciphertext{worst[i], best[i]},
				ScoreBits: slot,
			}
		}
		// Qry_F marks the depth's duplicates from SecWorstBest's own bits,
		// with no round; Qry_E drops them in a round of its own.
		var err error
		if opts.Mode == QryE {
			gamma, err = protocols.SecDedup(ctx, e.client, gamma, cloud.DedupEliminate, protocols.AllPairs(m), nil)
		} else {
			gamma, err = protocols.MarkDuplicates(ctx, e.client.PK(), gamma, same, shift)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: depth %d dedup: %w", d, err)
		}
		T, err = protocols.SecUpdate(ctx, e.client, T, gamma, dedupMode)
		if err != nil {
			return nil, nil, fmt.Errorf("core: depth %d SecUpdate: %w", d, err)
		}
		if opts.ExactScan || depth < haltFrom || len(T) < k+1 {
			continue
		}
		bottoms := depthBottoms(histories, d)
		halted, ranked, err := e.checkHalt(ctx, T, k, magBits, bottoms, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("core: depth %d halting check: %w", d, err)
		}
		T = ranked
		if halted {
			res := &QueryResult{Items: T[:k], Depth: depth, Halted: true}
			return res, &runInfo{ranked: T, bottoms: bottoms}, nil
		}
	}
	return e.finalize(ctx, T, k, magBits, depth, maxD == e.er.N, depthBottoms(histories, depth-1), nil)
}

// depthBottoms returns every list's score at 0-based depth d: the bottoms
// NRA bounds unseen scores by once the scan has read depth d.
func depthBottoms(histories []protocols.ListHistory, d int) []*paillier.Ciphertext {
	out := make([]*paillier.Ciphertext, len(histories))
	for i, h := range histories {
		out[i] = h.Scores[d]
	}
	return out
}

// queryBatched is Qry_Ba (Section 10.2): per-depth items carry only their
// own score and a per-list seen indicator; every p depths the pending
// items are merged into T with one score-summing dedup, then ranked and
// halt-checked. Best bounds are computed exactly at the batch boundary
// from the indicator vectors: B = W + sum_j (1 - v_j) * bottom_j.
func (e *Engine) queryBatched(ctx context.Context, tk *Token, opts Options) (*QueryResult, *runInfo, error) {
	m, k := len(tk.Lists), tk.K
	magBits := e.magBits(tk)
	slot := SlotBits(magBits)
	p := opts.BatchDepth
	if p == 0 {
		p = 2 * k
		if p < 8 {
			p = 8
		}
	}
	maxD := e.er.N
	if opts.MaxDepth > 0 && opts.MaxDepth < maxD {
		maxD = opts.MaxDepth
	}
	cols := 1 + m // [W, v_0..v_{m-1}]
	mergeCols := make([]int, cols)
	for i := range mergeCols {
		mergeCols[i] = i
	}
	var T, pending []protocols.Item
	var bottoms []*paillier.Ciphertext
	depth := 0
	for d := 0; d < maxD; d++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: depth %d: %w", d, err)
		}
		depth = d + 1
		bottoms = make([]*paillier.Ciphertext, m)
		// Each list's depth item needs 1+m encryptions (score + indicator
		// vector); the m items build in parallel.
		depthItems := make([]protocols.Item, m)
		err := parallel.ForEachCtx(ctx, m, func(i int) error {
			score, err := e.depthScore(tk, i, d)
			if err != nil {
				return err
			}
			bottoms[i] = score
			item := protocols.Item{EHL: e.er.Lists[tk.Lists[i]][d].EHL, Scores: make([]*paillier.Ciphertext, cols), ScoreBits: slot}
			item.Scores[0] = score
			for j := 0; j < m; j++ {
				v := big.NewInt(0)
				if j == i {
					v = big.NewInt(1)
				}
				ct, err := e.client.Enc().Encrypt(v)
				if err != nil {
					return err
				}
				item.Scores[1+j] = ct
			}
			depthItems[i] = item
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		pending = append(pending, depthItems...)
		if (d+1)%p != 0 && d != maxD-1 {
			continue
		}
		// Batch boundary: merge pending into T with one score-summing
		// dedup over (pending x pending) + (pending x T) pairs.
		combined := append(append([]protocols.Item(nil), T...), pending...)
		var pairs protocols.PairSet
		base := len(T)
		for i := 0; i < len(pending); i++ {
			for j := i + 1; j < len(pending); j++ {
				pairs.Pairs = append(pairs.Pairs, [2]int{base + i, base + j})
			}
			for j := 0; j < base; j++ {
				pairs.Pairs = append(pairs.Pairs, [2]int{base + i, j})
			}
		}
		T, err = protocols.SecDedup(ctx, e.client, combined, cloud.DedupMerge, pairs, mergeCols)
		if err != nil {
			return nil, nil, fmt.Errorf("core: depth %d batch merge: %w", d, err)
		}
		pending = nil
		if opts.ExactScan || depth < firstHaltDepth(m, k) || len(T) < k+1 {
			continue
		}
		halted, ranked, err := e.checkHalt(ctx, T, k, magBits, bottoms, e.batchBest(bottoms, slot))
		if err != nil {
			return nil, nil, fmt.Errorf("core: depth %d halting check: %w", d, err)
		}
		T = ranked
		if halted {
			res := &QueryResult{Items: T[:k], Depth: depth, Halted: true}
			return res, &runInfo{ranked: T, bottoms: bottoms, best: e.batchBest(bottoms, slot)}, nil
		}
	}
	return e.finalize(ctx, T, k, magBits, depth, maxD == e.er.N, bottoms, e.batchBest(bottoms, slot))
}

// bestFunc computes exact best bounds for the given (ranked) items.
type bestFunc func(ctx context.Context, items []protocols.Item) ([]*paillier.Ciphertext, error)

// batchBest returns the Qry_Ba bound computer: for each item,
// B = W + sum_j bottom_j - sum_j v_j * bottom_j, with the v_j * bottom_j
// products resolved through one batched SecMult round, its operands (an
// indicator and a bottom score) declared within ±2^bits, and the per-item
// bound assembly fanned out over the client's workers.
func (e *Engine) batchBest(bottoms []*paillier.Ciphertext, bits int) bestFunc {
	return func(ctx context.Context, items []protocols.Item) ([]*paillier.Ciphertext, error) {
		pk := e.client.PK()
		m := len(bottoms)
		zero, err := e.client.Enc().EncryptZero()
		if err != nil {
			return nil, err
		}
		sumBottoms, err := pk.AddAll(append([]*paillier.Ciphertext{zero}, bottoms...))
		if err != nil {
			return nil, err
		}
		var as, bs []*paillier.Ciphertext
		for _, it := range items {
			if len(it.Scores) != 1+m {
				return nil, fmt.Errorf("core: batched item has %d columns, want %d", len(it.Scores), 1+m)
			}
			for j := 0; j < m; j++ {
				as = append(as, it.Scores[1+j])
				bs = append(bs, bottoms[j])
			}
		}
		prods, err := protocols.SecMult(ctx, e.client, as, bs, bits)
		if err != nil {
			return nil, err
		}
		negs := make([]*paillier.Ciphertext, len(prods))
		for i, p := range prods {
			if negs[i], err = pk.Neg(p); err != nil {
				return nil, err
			}
		}
		out := make([]*paillier.Ciphertext, len(items))
		err = parallel.ForEachCtx(ctx, len(items), func(i int) error {
			// B = W + sum_j bottom_j - sum_j v_j*bottom_j, folded in one
			// product chain over N^2.
			terms := make([]*paillier.Ciphertext, 0, 2+m)
			terms = append(terms, items[i].Scores[0], sumBottoms)
			terms = append(terms, negs[i*m:(i+1)*m]...)
			b, err := pk.AddAll(terms)
			if err != nil {
				return err
			}
			out[i] = b
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}

// checkHalt puts T's top k by worst score first and evaluates NRA's
// halting condition, for which the tail's order does not matter: W_k must
// dominate every tracked non-top-k bound and the unseen-object
// bound (the sum of the current bottoms). Algorithm 3 line 10 checks only
// the (k+1)-th item's bound, which can halt on a wrong top-k (DESIGN.md
// errata). All the comparisons go to S2 as one batch, and S1 learns each
// outcome: one dominance bit per bound, recorded on the ledger.
// When best is nil, stored best-bound columns (ColBest) are used (Qry_F /
// Qry_E); otherwise best computes bounds on demand (Qry_Ba).
func (e *Engine) checkHalt(ctx context.Context, T []protocols.Item, k, magBits int, bottoms []*paillier.Ciphertext, best bestFunc) (bool, []protocols.Item, error) {
	ranked, err := protocols.EncSelectTop(ctx, e.client, T, protocols.ColWorst, true, k, magBits)
	if err != nil {
		return false, nil, err
	}
	tail := ranked[k:]
	var bounds []*paillier.Ciphertext
	if best != nil {
		if bounds, err = best(ctx, tail); err != nil {
			return false, nil, err
		}
	} else {
		for _, it := range tail {
			bounds = append(bounds, it.Scores[protocols.ColBest])
		}
	}
	zero, err := e.client.Enc().EncryptZero()
	if err != nil {
		return false, nil, err
	}
	sum, err := e.client.PK().AddAll(append([]*paillier.Ciphertext{zero}, bottoms...))
	if err != nil {
		return false, nil, err
	}
	bounds = append(bounds, sum)
	wk := ranked[k-1].Scores[protocols.ColWorst]
	wks := make([]*paillier.Ciphertext, len(bounds))
	for i := range wks {
		wks[i] = wk
	}
	fs, err := protocols.EncCompareBatch(ctx, e.client, bounds, wks, magBits)
	if err != nil {
		return false, nil, err
	}
	e.client.Ledger().Record("S1", "Query", "halting check: %d dominance bits", len(fs))
	for _, f := range fs {
		if !f {
			return false, ranked, nil
		}
	}
	return true, ranked, nil
}

// finalize returns the best-effort top-k after the scan ended without the
// halting condition firing. A full scan is exact (all bounds are tight at
// depth n); a MaxDepth-capped scan is marked unhalted. Only the top k
// positions are ranked: the shard merge takes every bound beyond them as
// a residual, in any order.
func (e *Engine) finalize(ctx context.Context, T []protocols.Item, k, magBits, depth int, fullScan bool, bottoms []*paillier.Ciphertext, best bestFunc) (*QueryResult, *runInfo, error) {
	info := &runInfo{bottoms: bottoms, best: best, fullScan: fullScan}
	if len(T) == 0 {
		return &QueryResult{Depth: depth, Halted: fullScan}, info, nil
	}
	if k > len(T) {
		k = len(T)
	}
	ranked, err := protocols.EncSelectTop(ctx, e.client, T, protocols.ColWorst, true, k, magBits)
	if err != nil {
		return nil, nil, err
	}
	info.ranked = ranked
	return &QueryResult{Items: ranked[:k], Depth: depth, Halted: fullScan}, info, nil
}

// CandidateSet is a shard's contribution to a merged top-k: its own
// top-k in a mode-independent two-column shape plus the NRA residual
// bounds the merge check needs.
type CandidateSet struct {
	// Items are the shard's top-k candidates as uniform two-column items:
	// column 0 the accumulated worst score W, column 1 an upper bound B on
	// the candidate's exact aggregate (B = W after a full scan). Ranked by
	// W descending.
	Items []protocols.Item
	// Residuals are encrypted upper bounds covering every object of this
	// relation NOT represented in Items: the best bounds of the tracked
	// non-top-k items, plus — for scans that did not reach the full
	// relation — the unseen-object bound sum_j bottom_j.
	Residuals []*paillier.Ciphertext
	// Depth and Halted mirror QueryResult.
	Depth  int
	Halted bool
}

// SecQueryCandidates executes the query like SecQuery but returns the
// merge view: candidates with explicit upper bounds and the residual
// bounds for everything the shard did not return. internal/shard runs one
// per shard and combines them with an EncSelectTop merge plus an
// NRA-style domination check (see shard.Engine).
func (e *Engine) SecQueryCandidates(ctx context.Context, tk *Token, opts Options) (*CandidateSet, error) {
	if err := e.admit(tk, opts); err != nil {
		return nil, err
	}
	res, info, err := e.run(ctx, tk, opts)
	if err != nil {
		return nil, err
	}
	e.client.Ledger().Record("S1", "Query", "halting depth D_q = %d (halted=%v)", res.Depth, res.Halted)
	out := &CandidateSet{Depth: res.Depth, Halted: res.Halted}

	// Upper bounds for every tracked item: the stored ColBest for the
	// per-depth modes, the indicator-derived bound for Qry_Ba. After a
	// full scan both reduce to the exact aggregate (B = W).
	var bounds []*paillier.Ciphertext
	if info.best != nil {
		if bounds, err = info.best(ctx, info.ranked); err != nil {
			return nil, err
		}
	} else {
		bounds = make([]*paillier.Ciphertext, len(info.ranked))
		for i, it := range info.ranked {
			bounds[i] = it.Scores[protocols.ColBest]
		}
	}
	k := len(res.Items) // res.Items is info.ranked[:k]
	out.Items = make([]protocols.Item, k)
	for i, it := range res.Items {
		out.Items[i] = protocols.Item{
			EHL:    it.EHL,
			Scores: []*paillier.Ciphertext{it.Scores[protocols.ColWorst], bounds[i]},
		}
	}
	out.Residuals = append(out.Residuals, bounds[k:]...)
	if !info.fullScan && len(info.bottoms) > 0 {
		// Objects never seen in any list are bounded by the sum of the
		// current bottoms; after a full scan there are none.
		zero, err := e.client.Enc().EncryptZero()
		if err != nil {
			return nil, err
		}
		sum, err := e.client.PK().AddAll(append([]*paillier.Ciphertext{zero}, info.bottoms...))
		if err != nil {
			return nil, err
		}
		out.Residuals = append(out.Residuals, sum)
	}
	return out, nil
}
