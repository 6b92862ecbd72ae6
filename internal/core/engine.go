package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/cloud"
	"repro/internal/paillier"
	"repro/internal/parallel"
	"repro/internal/prf"
	"repro/internal/protocols"
	"repro/internal/secerr"
)

// QueryResult is the outcome of SecQuery: the encrypted top-k items
// (column 0 = worst score), the number of depths scanned, whether the
// halting condition fired (false only when MaxDepth cut the scan short),
// and whether a sharded merge failed its bound check and rescanned every
// shard exactly (internal/shard sets it).
type QueryResult struct {
	Items     []protocols.Item
	Depth     int
	Halted    bool
	Rescanned bool
}

// Engine is the data cloud S1's query processor. It keeps no state
// between queries, so it is safe for concurrent use.
type Engine struct {
	client *cloud.Client
	er     *EncryptedRelation
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
	return &Engine{client: client, er: er}, nil
}

// MagBits bounds |W|, |B| magnitudes for comparison masking. A real W or
// B sums m weighted scores of maxScoreBits bits each, so it lies in
// [0, 2^realBits); a Qry_F row marked by the u copies of its object read
// after it (protocols.MarkEarlier, at its own depth or a later one) sits
// u <= m-1 duplicate shifts of 2^realBits below its own, since an object
// appears once a list, which takes mBits more. Exported because the
// shard merge must compare merged candidates under exactly the bound the
// per-shard scans used — a divergent copy would silently break merge
// soundness.
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

// SlotBits is the width the engine declares for the gadget payloads of a
// score slot (protocols.Item.ScoreBits) under the comparison bound
// magBits: a W or B lies within ±2^magBits, so a gate's difference of
// two, a marked row's W - u*shift against a real one included, lies
// within ±2^(magBits+1). Exported because the shard merge ranks
// candidates under the bound the shards used.
func SlotBits(magBits int) int { return magBits + 1 }

// depthBits is the width the engine declares for SecWorstBest's payloads
// (protocols.DepthItem.ScoreBits): a weighted score x_j, and a difference
// x_j^e - bottom_j of two from one list, lies within ±2^(MaxScoreBits +
// wBits).
func (e *Engine) depthBits(tk *Token) int {
	realBits, mBits := scoreBits(e.er.MaxScoreBits, tk)
	return realBits - mBits
}

// duplicateShift is 2^realBits, the amount MarkEarlier takes off a row's
// W and B per later copy of its object: above every real score, so a
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
// observes which queries share a token, so the ledger names each run's
// token by a digest of it. Equal tokens give equal lines; the engine
// itself remembers nothing.
func (e *Engine) recordQueryPattern(tk *Token) {
	h := sha256.New()
	fmt.Fprintf(h, "k=%d;", tk.K)
	for _, l := range tk.Lists {
		fmt.Fprintf(h, "%d,", l)
	}
	for _, w := range tk.Weights {
		fmt.Fprintf(h, "w%d,", w)
	}
	e.client.Ledger().Record("S1", "Token", "query pattern: token %x (m=%d, k=%d)",
		h.Sum(nil)[:8], len(tk.Lists), tk.K)
}

// runInfo is one run's outcome: its QueryResult plus what a shard merge
// needs beyond it — the full tracked list (top items ranked first, the
// result's Items are its prefix), the final per-list bottom scores, and
// the run's bound source.
type runInfo struct {
	res      *QueryResult
	ranked   []protocols.Item
	bottoms  []*paillier.Ciphertext
	best     Bounds
	fullScan bool
}

// SecQuery executes the top-k query (Algorithm 3) in the requested mode.
// Cancellation is cooperative: the engine checks ctx between protocol
// rounds (and the sub-protocol layers check it inside their worker
// loops), so a canceled query stops within one round.
func (e *Engine) SecQuery(ctx context.Context, tk *Token, opts Options) (*QueryResult, error) {
	info, err := e.run(ctx, tk, opts)
	if err != nil {
		return nil, err
	}
	return info.res, nil
}

// run validates a query's token and options, records its query pattern
// (a refused query leaves no trace on the ledger), runs it and records
// the halting depth.
func (e *Engine) run(ctx context.Context, tk *Token, opts Options) (*runInfo, error) {
	if err := e.ValidateToken(tk); err != nil {
		return nil, err
	}
	if err := opts.Validate(tk.K); err != nil {
		return nil, err
	}
	e.recordQueryPattern(tk)
	info, err := e.query(ctx, tk, opts)
	if err != nil {
		return nil, err
	}
	e.client.Ledger().Record("S1", "Query", "halting depth D_q = %d (halted=%v)", info.res.Depth, info.res.Halted)
	return info, nil
}

// readDepths reads the token's items at depths [from, to) of every
// queried list, declared at bits (DepthItem.ScoreBits), and appends them
// to the lists' histories. S1 applies the token's weights by scalar
// multiplication (Section 7).
func (e *Engine) readDepths(ctx context.Context, tk *Token, from, to, bits int, histories []protocols.ListHistory) ([][]protocols.DepthItem, error) {
	m := len(tk.Lists)
	out := make([][]protocols.DepthItem, to-from)
	for t := range out {
		out[t] = make([]protocols.DepthItem, m)
	}
	err := parallel.ForEachCtx(ctx, len(out)*m, func(x int) error {
		t, i := x/m, x%m
		it := e.er.Lists[tk.Lists[i]][from+t]
		out[t][i] = protocols.DepthItem{EHL: it.EHL, Score: it.Score, ScoreBits: bits}
		if tk.Weights == nil {
			return nil
		}
		var err error
		out[t][i].Score, err = e.client.PK().MulConst(it.Score, big.NewInt(tk.Weights[i]))
		return err
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

// query runs a query in one loop over the depths its Schedule reads,
// halt-checking where the schedule says and ranking T's top k after a
// scan that did not halt. Its one fork is the mode's policy for T's
// duplicate rows, read, which brings depth d into T and returns the bound
// source of a check after it. Qry_F keeps row e*m + j from list j at
// depth e, which S1 alone knows: a depth's SecWorstBest round gives its
// rows Seen, every score of their object read so far, and SecBest's
// bound, and one MarkEarlier pass on the round's Marks marks every row
// whose object a later row carries, so each object's newest row is its
// live one. Qry_E and Qry_Ba merge: a depth's items carry their score and
// a per-list seen indicator, a merging depth joins them to T in one
// score-summing Dedup round, and bounds come from the indicators
// (batchBest).
func (e *Engine) query(ctx context.Context, tk *Token, opts Options) (*runInfo, error) {
	m, k := len(tk.Lists), tk.K
	s := NewSchedule(e.er.N, m, k, opts)
	magBits := MagBits(e.er.MaxScoreBits, tk)
	slot, histories := SlotBits(magBits), make([]protocols.ListHistory, m)
	var T []protocols.Item
	var read func(d int) (Bounds, error)
	if opts.Mode == QryF {
		shift, depthBits := e.duplicateShift(tk), e.depthBits(tk)
		// pending: SecWorstBest's answers for depths not yet marked into T.
		var pending []protocols.DepthBounds
		read = func(d int) (Bounds, error) {
			if to := s.Reads(d); to > d {
				batch, err := e.readDepths(ctx, tk, d, to, depthBits, histories)
				if err != nil {
					return nil, err
				}
				if pending, err = protocols.SecWorstBestDepths(ctx, e.client, batch, histories); err != nil {
					return nil, fmt.Errorf("core: depth %d SecWorst/SecBest: %w", d, err)
				}
			}
			b := pending[0]
			pending = pending[1:]
			for i, h := range histories {
				T = append(T, protocols.Item{EHL: h.EHLs[d], Scores: []*paillier.Ciphertext{b.Seen[i], b.Best[i]}, ScoreBits: slot})
			}
			var err error
			if T, err = protocols.MarkEarlier(ctx, e.client.PK(), T, b.Marks, shift); err != nil {
				return nil, fmt.Errorf("core: depth %d mark: %w", d, err)
			}
			return StoredBounds, nil
		}
	} else {
		mergeCols := make([]int, 1+m) // [W, v_0..v_{m-1}]
		for i := range mergeCols {
			mergeCols[i] = i
		}
		var pending []protocols.Item
		read = func(d int) (Bounds, error) {
			batch, err := e.readDepths(ctx, tk, d, d+1, slot, histories)
			if err != nil {
				return nil, err
			}
			// Each list's depth item carries its score and the indicator
			// vector v_j = [j = i], m encryptions built in parallel.
			for _, it := range batch[0] {
				scores := make([]*paillier.Ciphertext, len(mergeCols))
				scores[0] = it.Score
				pending = append(pending, protocols.Item{EHL: it.EHL, Scores: scores, ScoreBits: slot})
			}
			items := pending[len(pending)-m:]
			err = parallel.ForEachCtx(ctx, m*m, func(x int) error {
				i, j := x/m, x%m
				v := big.NewInt(0)
				if i == j {
					v.SetInt64(1)
				}
				ct, err := e.client.Enc().Encrypt(v)
				items[i].Scores[1+j] = ct
				return err
			})
			if err != nil {
				return nil, err
			}
			best := e.batchBest(depthBottoms(histories, d), slot)
			if !s.Merges(d) {
				return best, nil
			}
			// One score-summing dedup over pending x pending and pending x T.
			combined := append(append([]protocols.Item(nil), T...), pending...)
			var pairs protocols.PairSet
			base := len(T)
			for i := range pending {
				for j := i + 1; j < len(pending); j++ {
					pairs.Pairs = append(pairs.Pairs, [2]int{base + i, base + j})
				}
				for j := 0; j < base; j++ {
					pairs.Pairs = append(pairs.Pairs, [2]int{base + i, j})
				}
			}
			if T, err = protocols.SecDedup(ctx, e.client, combined, cloud.DedupMerge, pairs, mergeCols); err != nil {
				return nil, fmt.Errorf("core: depth %d batch merge: %w", d, err)
			}
			pending = nil
			return best, nil
		}
	}
	var best Bounds
	var bottoms []*paillier.Ciphertext
	for d := 0; d < s.Depths; d++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: depth %d: %w", d, err)
		}
		var err error
		if best, err = read(d); err != nil {
			return nil, err
		}
		if bottoms = depthBottoms(histories, d); !s.Checks(d, len(T)) {
			continue
		}
		// The halting check ranks a copy of T (rankCopy) and leaves T as
		// it was, so Qry_F keeps every row's list and depth.
		unseen, err := e.unseenBound(bottoms)
		if err != nil {
			return nil, err
		}
		input, err := rankCopy(T)
		if err != nil {
			return nil, err
		}
		ranked, halted, err := Dominates(ctx, e.client, "halting check", input, k, magBits, best, unseen)
		if err != nil {
			return nil, fmt.Errorf("core: depth %d halting check: %w", d, err)
		}
		if halted {
			res := &QueryResult{Items: ranked[:k], Depth: d + 1, Halted: true}
			return &runInfo{res: res, ranked: ranked, bottoms: bottoms, best: best}, nil
		}
	}
	// An unhalted scan is exact after a full scan and marked unhalted
	// after a MaxDepth cap. Only its top k are ranked: the shard merge
	// takes every bound beyond them as a residual, in any order.
	input, err := rankCopy(T)
	if err != nil {
		return nil, err
	}
	k = min(k, len(T))
	ranked, err := protocols.EncSelectTop(ctx, e.client, input, protocols.ColWorst, true, k, magBits)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{Items: ranked[:k], Depth: s.Depths, Halted: s.FullScan}
	return &runInfo{res: res, ranked: ranked, bottoms: bottoms, best: best, fullScan: s.FullScan}, nil
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

// Bounds is a run's one bound source: an encrypted upper bound B on the
// exact aggregate of each given item.
type Bounds func(ctx context.Context, items []protocols.Item) ([]*paillier.Ciphertext, error)

// StoredBounds reads each item's ColBest column: the bound source of
// Qry_F and a shard merge's two-column candidates.
func StoredBounds(_ context.Context, items []protocols.Item) ([]*paillier.Ciphertext, error) {
	out := make([]*paillier.Ciphertext, len(items))
	for i, it := range items {
		out[i] = it.Scores[protocols.ColBest]
	}
	return out, nil
}

// batchBest returns the bound source of Qry_E and Qry_Ba: for each item,
// B = W + sum_j bottom_j - sum_j v_j * bottom_j, with the v_j * bottom_j
// products resolved through one batched SecMult round, its operands (an
// indicator and a bottom score) declared within ±2^bits, and the per-item
// bound assembly fanned out over the client's workers.
func (e *Engine) batchBest(bottoms []*paillier.Ciphertext, bits int) Bounds {
	return func(ctx context.Context, items []protocols.Item) ([]*paillier.Ciphertext, error) {
		pk := e.client.PK()
		m := len(bottoms)
		sumBottoms, err := e.unseenBound(bottoms)
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
		out := make([]*paillier.Ciphertext, len(items))
		err = parallel.ForEachCtx(ctx, len(items), func(i int) error {
			// B = W + sum_j bottom_j - sum_j v_j*bottom_j, folded in one
			// product chain over N^2.
			terms := []*paillier.Ciphertext{items[i].Scores[0], sumBottoms}
			for _, p := range prods[i*m : (i+1)*m] {
				neg, err := pk.Neg(p)
				if err != nil {
					return err
				}
				terms = append(terms, neg)
			}
			var err error
			out[i], err = pk.AddAll(terms)
			return err
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
}

// unseenBound is NRA's bound on every object no list has shown yet: the
// sum of the lists' current bottoms, folded onto a fresh Enc(0) so it is
// a new ciphertext even over one list.
func (e *Engine) unseenBound(bottoms []*paillier.Ciphertext) (*paillier.Ciphertext, error) {
	zero, err := e.client.Enc().EncryptZero()
	if err != nil {
		return nil, err
	}
	return e.client.PK().AddAll(append([]*paillier.Ciphertext{zero}, bottoms...))
}

// rankCopy returns T under a fresh permutation of S1's own: the input of
// every ranking. A comparison against a marked row can show S2 its size
// (DESIGN.md "The mark step"), and Qry_F's T is in (depth, list) order,
// so without it a ranking gate's position would name the list and depth
// of the rows it compared.
func rankCopy(T []protocols.Item) ([]protocols.Item, error) {
	at, err := prf.RandomPerm(len(T))
	if err != nil {
		return nil, err
	}
	out := make([]protocols.Item, len(T))
	for i, it := range T {
		out[at[i]] = it
	}
	return out, nil
}

// Dominates is NRA's domination test, shared by the halting check and the
// shard merge's certificate. It puts the top k of items by worst score
// first (EncSelectTop; the tail's order does not matter) and reports
// whether W_k dominates the bound of every item past them, taken from
// best, and every extra bound: the unseen-object bound for a halting
// check, the shards' residuals for a merge. Algorithm 3 line 10 checks
// only the (k+1)-th item's bound, which can halt on a wrong top-k
// (DESIGN.md errata). All the comparisons go to S2 as one batch (none
// when there are no bounds, which certifies), and S1 learns each
// outcome: one dominance bit per bound, recorded on its ledger under the
// check's name.
func Dominates(ctx context.Context, client *cloud.Client, check string, items []protocols.Item, k, magBits int, best Bounds, extra ...*paillier.Ciphertext) ([]protocols.Item, bool, error) {
	ranked, err := protocols.EncSelectTop(ctx, client, items, protocols.ColWorst, true, k, magBits)
	if err != nil {
		return nil, false, err
	}
	bounds, err := best(ctx, ranked[k:])
	if err != nil {
		return nil, false, err
	}
	bounds = append(bounds, extra...)
	wks := make([]*paillier.Ciphertext, len(bounds))
	for i := range wks {
		wks[i] = ranked[k-1].Scores[protocols.ColWorst]
	}
	fs, err := protocols.EncCompareBatch(ctx, client, bounds, wks, magBits)
	if err != nil {
		return nil, false, err
	}
	client.Ledger().Record("S1", "Query", "%s: %d dominance bits", check, len(fs))
	for _, f := range fs {
		if !f {
			return ranked, false, nil
		}
	}
	return ranked, true, nil
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
// per shard and combines them with the same domination test the halting
// check uses (Dominates; see shard.Merge).
func (e *Engine) SecQueryCandidates(ctx context.Context, tk *Token, opts Options) (*CandidateSet, error) {
	info, err := e.run(ctx, tk, opts)
	if err != nil {
		return nil, err
	}
	res := info.res
	out := &CandidateSet{Depth: res.Depth, Halted: res.Halted}
	// Upper bounds for every tracked item from the run's bound source;
	// after a full scan they reduce to the exact aggregate (B = W).
	bounds, err := info.best(ctx, info.ranked)
	if err != nil {
		return nil, err
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
		unseen, err := e.unseenBound(info.bottoms)
		if err != nil {
			return nil, err
		}
		out.Residuals = append(out.Residuals, unseen)
	}
	return out, nil
}
