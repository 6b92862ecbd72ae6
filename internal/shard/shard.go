// Package shard partitions one logical relation into P independently
// encrypted shards and merges their encrypted per-shard top-k candidates
// back into the global top-k.
//
// Partitioning is round-robin over rows at Enc time (Split); every shard
// is a complete EncryptedRelation over its row subset, encrypted under
// the owner's shared keys with *global* object ids, so the crypto cloud
// serves all shards of a relation from one key registration and one
// Revealer resolves any shard's output. At query time an Engine runs the
// same token over every source concurrently — on a multiplexed transport
// the per-shard protocol rounds genuinely overlap — and merges the
// P·k candidates with the existing EncSelectTop selection. A source
// answers for some of the P global shard indices: a local shard for its
// own, a cluster member (internal/cluster) for the subset it announced
// over the wire. Where the candidates were scanned does not enter the
// argument below, so the fan-out, merge and fallback are written once.
//
// Soundness of the merge is NRA-style. Every object belongs to exactly
// one shard, and the global top-k objects are each within their own
// shard's top-k (at most k-1 objects in the whole relation beat them),
// so the candidate union always contains the answer set. The merged
// k-th worst score W_k is the k-th order statistic of a superset of each
// shard's top-k, hence W_k >= every shard's own k-th worst — the bounds
// each shard's halting already dominated stay dominated. The engine
// still verifies the full NRA condition explicitly, with the halting
// check's own routine (core.Dominates): every non-selected candidate's
// upper bound B and every shard residual bound (tracked non-top-k bounds
// plus the unseen-object bound) must be <= W_k, in one comparison round
// whose bits S1's ledger records. If any bound survives — a non-selected
// candidate's best bound above W_k, or a depth-capped shard's residual —
// the engine falls back to an exact rescan (ExactScan over every shard),
// after which all bounds equal the exact aggregates and the check is
// guaranteed to pass (an uncertified re-merge is therefore an internal
// error). See DESIGN.md's errata note "Shard merge bound".
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/paillier"
	"repro/internal/protocols"
	"repro/internal/secerr"
	"repro/internal/telemetry"
)

// Split partitions a plaintext relation round-robin into p sub-relations
// and returns, for each, the global row ids backing its rows (shard s
// holds global rows s, s+p, s+2p, ...). p must be in [1, n].
func Split(rel *dataset.Relation, p int) ([]*dataset.Relation, [][]int, error) {
	if rel == nil {
		return nil, nil, errors.New("shard: nil relation")
	}
	if err := rel.Validate(); err != nil {
		return nil, nil, err
	}
	n := rel.N()
	if p < 1 || p > n {
		return nil, nil, fmt.Errorf("shard: shard count %d out of range [1,%d]", p, n)
	}
	subs := make([]*dataset.Relation, p)
	ids := make([][]int, p)
	for s := 0; s < p; s++ {
		sub := &dataset.Relation{Name: fmt.Sprintf("%s/shard%d", rel.Name, s)}
		for i := s; i < n; i += p {
			sub.Rows = append(sub.Rows, rel.Rows[i])
			ids[s] = append(ids[s], i)
		}
		subs[s] = sub
	}
	return subs, ids, nil
}

// Relation is a sharded encrypted relation: P complete encrypted
// relations over disjoint row subsets, sharing the owner's key material
// and carrying globally unique object ids.
type Relation struct {
	Shards []*core.EncryptedRelation
	// N and M are the global dimensions; MaxScoreBits the shared bound.
	N, M         int
	MaxScoreBits int
}

// Encrypt partitions rel into p shards and encrypts each with the
// owner's scheme under global object ids (Enc per shard, Algorithm 2).
func Encrypt(s *core.Scheme, rel *dataset.Relation, p int) (*Relation, error) {
	subs, ids, err := Split(rel, p)
	if err != nil {
		return nil, err
	}
	shards := make([]*core.EncryptedRelation, p)
	for i, sub := range subs {
		er, err := s.EncryptRelationWithIDs(sub, ids[i])
		if err != nil {
			return nil, fmt.Errorf("shard: encrypting shard %d: %w", i, err)
		}
		er.Name = rel.Name
		shards[i] = er
	}
	return New(shards)
}

// New assembles a sharded relation from already-encrypted shards (the
// persistence path) and validates they agree on shape metadata.
func New(shards []*core.EncryptedRelation) (*Relation, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: no shards")
	}
	r := &Relation{Shards: shards, M: shards[0].M, MaxScoreBits: shards[0].MaxScoreBits}
	for i, er := range shards {
		if er == nil || len(er.Lists) == 0 {
			return nil, fmt.Errorf("shard: shard %d is empty", i)
		}
		if er.M != r.M || er.MaxScoreBits != r.MaxScoreBits {
			return nil, fmt.Errorf("shard: shard %d shape (m=%d, scorebits=%d) differs from shard 0 (m=%d, scorebits=%d)",
				i, er.M, er.MaxScoreBits, r.M, r.MaxScoreBits)
		}
		r.N += er.N
	}
	return r, nil
}

// fallbackEvent is the ledger event an uncertified merge records, by
// scope.
var fallbackEvent = map[string]string{"shard": "ShardMerge", "cluster": "ClusterMerge"}

// Source is one participant in a fan-out: Run answers a token with one
// candidate set per global shard index in Indices, in that order. Name
// identifies the source in errors ("shard 2", "member m1"); Run is
// expected to name it too in the errors it returns.
type Source struct {
	Name    string
	Indices []int
	Run     func(ctx context.Context, tk *core.Token, opts core.Options) ([]*core.CandidateSet, error)
}

// Engine executes one token over every source concurrently and merges the
// candidates. It is safe for concurrent use (each query builds only
// per-call state; the sources are themselves concurrent).
type Engine struct {
	client *cloud.Client
	// scope labels the merge fallback: "shard" for local shards, "cluster"
	// for members at a front door.
	scope        string
	m, n         int // global dimensions
	maxScoreBits int
	total        int // global shard count P
	sources      []Source
	// single is the unsharded relation's engine: SecQuery runs it
	// directly, with no merge round.
	single *core.Engine
}

// NewEngine builds the sharded query engine over one client (the shards
// share S2 key material, so every shard's rounds carry the same relation
// ID and route to one registered Server). Each shard is a source of its
// own index.
func NewEngine(client *cloud.Client, rel *Relation) (*Engine, error) {
	if rel == nil || len(rel.Shards) == 0 {
		return nil, errors.New("shard: empty sharded relation")
	}
	sources := make([]Source, len(rel.Shards))
	var single *core.Engine
	for i, er := range rel.Shards {
		sub, err := core.NewEngine(client, er)
		if err != nil {
			return nil, fmt.Errorf("shard: engine for shard %d: %w", i, err)
		}
		sources[i] = localSource(i, er.N, sub)
		single = sub
	}
	e, err := NewFanOut(client, "shard", len(sources), rel.M, rel.N, rel.MaxScoreBits, sources)
	if err == nil && len(sources) == 1 {
		e.single = single
	}
	return e, err
}

// localSource runs one shard's candidate scan with k clamped to the
// shard's size.
func localSource(i, rows int, sub *core.Engine) Source {
	return Source{
		Name:    fmt.Sprintf("shard %d", i),
		Indices: []int{i},
		Run: func(ctx context.Context, tk *core.Token, opts core.Options) ([]*core.CandidateSet, error) {
			if rows == 0 {
				// A shard drained empty by deletions contributes nothing: no
				// candidates, no residual bound (it hosts no unseen objects).
				return []*core.CandidateSet{{Halted: true}}, nil
			}
			local := &core.Token{K: min(tk.K, rows), Lists: tk.Lists, Weights: tk.Weights}
			cs, err := sub.SecQueryCandidates(ctx, local, opts)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			return []*core.CandidateSet{cs}, nil
		},
	}
}

// NewFanOut builds an engine over sources that tile the total global
// shards of a relation of n rows and m lists: every index in [0, total)
// hosted by exactly one source. scope ("shard" or "cluster") labels the
// merge fallback's ledger event and metric.
func NewFanOut(client *cloud.Client, scope string, total, m, n, maxScoreBits int, sources []Source) (*Engine, error) {
	if client == nil {
		return nil, errors.New("shard: nil client")
	}
	if total < 1 {
		return nil, fmt.Errorf("shard: shard total %d", total)
	}
	host := make(map[int]string, total)
	for _, src := range sources {
		for _, ix := range src.Indices {
			if ix < 0 || ix >= total {
				return nil, fmt.Errorf("shard: %s holds shard index %d out of range [0,%d)", src.Name, ix, total)
			}
			if prev, dup := host[ix]; dup {
				return nil, fmt.Errorf("shard: shard %d hosted by both %s and %s", ix, prev, src.Name)
			}
			host[ix] = src.Name
		}
	}
	if len(host) != total {
		var missing []int
		for ix := 0; ix < total; ix++ {
			if _, ok := host[ix]; !ok {
				missing = append(missing, ix)
			}
		}
		return nil, fmt.Errorf("shard: sources do not tile the relation: shards %v unhosted", missing)
	}
	return &Engine{client: client, scope: scope, m: m, n: n, maxScoreBits: maxScoreBits,
		total: total, sources: sources}, nil
}

// Shards returns the fan-out width: the number of sources (shards
// locally, members at a cluster front door).
func (e *Engine) Shards() int { return len(e.sources) }

// ValidateToken checks a token against the *global* relation dimensions.
func (e *Engine) ValidateToken(tk *core.Token) error {
	return core.ValidateToken(tk, e.m, e.n)
}

// magBits is the core engine's comparison-mask sizing, so merged
// candidates compare under the same magnitude bound the shards used.
func (e *Engine) magBits(tk *core.Token) int {
	return core.MagBits(e.maxScoreBits, tk)
}

// SecQuery executes the top-k query over every source concurrently and
// merges. An unsharded relation runs exactly the core engine.
func (e *Engine) SecQuery(ctx context.Context, tk *core.Token, opts core.Options) (*core.QueryResult, error) {
	if e.single != nil {
		return e.single.SecQuery(ctx, tk, opts)
	}
	if err := e.ValidateToken(tk); err != nil {
		return nil, err
	}
	res, certified, err := e.fanOutMerge(ctx, tk, opts)
	if err != nil || certified {
		return res, err
	}
	// A bound survived the NRA check (a non-selected candidate or a
	// depth-capped shard could still hide a better object): rescan every
	// shard exactly, after which every bound is the exact aggregate and the
	// merge is unconditionally correct.
	e.client.Ledger().Record("S1", fallbackEvent[e.scope],
		"merge bound check failed; exact rescan over %d shards from %d sources", e.total, len(e.sources))
	telemetry.Default().Counter("sectopk_merge_fallbacks_total", "scope", e.scope).Inc()
	exact := opts
	exact.ExactScan = true
	exact.MaxDepth = 0
	res, certified, err = e.fanOutMerge(ctx, tk, exact)
	if err != nil {
		return nil, err
	}
	if !certified {
		return nil, secerr.New(secerr.CodeInternal, "shard: %s merge bound check failed after exact rescan", e.scope)
	}
	res.Rescanned = true
	return res, nil
}

// Candidates runs the token over every source concurrently and returns
// the candidate sets in shard order *without* merging them. This is the
// cluster member's half of a distributed query: each member contributes
// its shards' candidates and the front door merges across members. The
// token's shape is validated locally but its k is not bounded by the
// local row count — the front door validated k against the global
// relation and each shard clamps it to its own size.
func (e *Engine) Candidates(ctx context.Context, tk *core.Token, opts core.Options) ([]*core.CandidateSet, error) {
	if err := core.ValidateToken(tk, e.m, math.MaxInt); err != nil {
		return nil, err
	}
	return e.fanOut(ctx, tk, opts)
}

// fanOutMerge is one fan-out and its certified-or-not merge.
func (e *Engine) fanOutMerge(ctx context.Context, tk *core.Token, opts core.Options) (*core.QueryResult, bool, error) {
	sets, err := e.fanOut(ctx, tk, opts)
	if err != nil {
		return nil, false, err
	}
	return Merge(ctx, e.client, tk.K, e.magBits(tk), sets)
}

// fanOut runs the token on every source concurrently and places each
// source's sets at its global shard indices. The first failure cancels
// the siblings, and it — not a sibling's cancellation — is returned.
func (e *Engine) fanOut(ctx context.Context, tk *core.Token, opts core.Options) ([]*core.CandidateSet, error) {
	sets := make([]*core.CandidateSet, e.total)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, src := range e.sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := src.Run(ctx, tk, opts)
			if err == nil && len(got) != len(src.Indices) {
				err = secerr.New(secerr.CodeBadRequest,
					"shard: %s returned %d candidate sets for %d shards", src.Name, len(got), len(src.Indices))
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
					cancel() // stop sibling sources within one round
				}
				return
			}
			for j, cs := range got {
				sets[src.Indices[j]] = cs
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return sets, nil
}

// Merge unions candidate sets and certifies the global top-k with the
// halting check's own domination test (core.Dominates): every
// non-selected candidate's upper bound and every shard residual must be
// dominated by the merged k-th worst, and S1 records the check's bits on
// its ledger. The boolean reports whether the check certified the merge.
// magBits must be core.MagBits over the *global* relation's MaxScoreBits
// — the same bound the per-shard scans compared under — which is why the
// cluster coordinator carries the relation's global shape metadata.
func Merge(ctx context.Context, client *cloud.Client, k, magBits int, sets []*core.CandidateSet) (*core.QueryResult, bool, error) {
	var (
		union     []protocols.Item
		residuals []*paillier.Ciphertext
		depth     int
		halted    = true
	)
	// A set may come off the wire from a cluster member (secio.ReadCandidates
	// checks no shapes), and the bound check below indexes both columns.
	for i, cs := range sets {
		if cs == nil {
			return nil, false, secerr.New(secerr.CodeBadRequest, "shard: no candidate set for shard %d", i)
		}
		for j, it := range cs.Items {
			if err := it.Validate(protocols.ColBest + 1); err != nil {
				return nil, false, secerr.Wrap(secerr.CodeBadRequest, err, "shard: shard %d candidate %d", i, j)
			}
		}
		for j, r := range cs.Residuals {
			if r == nil || r.C == nil {
				return nil, false, secerr.New(secerr.CodeBadRequest, "shard: shard %d residual %d is nil", i, j)
			}
		}
		for _, it := range cs.Items {
			// A candidate's W and B are bounded as the shard's were (the
			// wire carries no width): declare the engine's width again.
			it.ScoreBits = core.SlotBits(magBits)
			union = append(union, it)
		}
		residuals = append(residuals, cs.Residuals...)
		if cs.Depth > depth {
			depth = cs.Depth
		}
		halted = halted && cs.Halted
	}
	if len(union) == 0 {
		return &core.QueryResult{Depth: depth, Halted: halted}, true, nil
	}
	if k > len(union) {
		k = len(union)
	}
	ranked, certified, err := core.Dominates(ctx, client, "merge check", union, k, magBits, core.StoredBounds, residuals...)
	if err != nil {
		return nil, false, fmt.Errorf("shard: merge check: %w", err)
	}
	return &core.QueryResult{Items: ranked[:k], Depth: depth, Halted: halted}, certified, nil
}
