// Package cluster fans one top-k query out across many S1 processes and
// merges the results under the same NRA-style soundness argument as the
// in-process shard merge.
//
// The placement model is a tiling: a relation is Split round-robin into
// P shards (internal/shard), and every cluster member hosts a disjoint
// subset of those shards under the owner's shared keys, provisioned via
// the secio "hosted-subset" handoff format. A Coordinator — the query
// front door — learns each member's subset from its Hello, validates
// that the subsets tile the relation exactly (every global shard index
// hosted exactly once, shape metadata and key material consistent
// everywhere), and then serves queries in rounds:
//
//	round 1 (fan-out):  send the token to every member concurrently; each
//	                    runs its shards' candidate scans against S2 and
//	                    returns P_i candidate sets.
//	round 2 (merge):    union the P candidate sets in global shard order,
//	                    EncSelectTop the k best by worst-score, and check
//	                    the NRA bound — every non-selected upper bound and
//	                    every shard residual dominated by the merged k-th
//	                    worst — in one EncCompareBatch.
//	round 3 (rescan):   only if the check could not certify (a relaxed-
//	                    halting or depth-capped shard may hide a better
//	                    object): repeat the fan-out with ExactScan, after
//	                    which every bound is the exact aggregate and the
//	                    re-merge is unconditionally certified.
//
// Soundness is inherited unchanged from the in-process merge (see
// internal/shard and DESIGN.md's "Shard merge bound" errata note):
// the argument is about disjoint row subsets, not about which process
// scans them. Because every member clamps k to each shard's size and the
// coordinator validated k against the global N, cluster answers are
// revealed-identical to a single node hosting all P shards.
//
// Failure semantics: a member that cannot be reached mid-query fails the
// query fast with a typed unavailable error naming the member (wrapping
// the transport cause); sibling fan-outs are canceled. Epoch pinning is
// strict — every candidate request carries the epoch the placement was
// assembled at, so a re-provisioned member fails typed-stale rather than
// contributing candidates from a different version of the relation.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"sort"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/secio"
	"repro/internal/transport"
)

// Contribution is one member's part of a relation's placement: its
// identity, the caller reaching its cluster listener, and the subset it
// announced in Hello.
type Contribution struct {
	Member string
	Caller transport.Caller
	Info   SubsetInfo
}

// Coordinator serves distributed top-k queries over one relation's
// placement. It is safe for concurrent use: queries build only per-call
// state.
type Coordinator struct {
	client  *cloud.Client
	name    string
	members []Contribution

	total        int // global shard count P
	n, m         int // global dimensions
	maxScoreBits int
	epoch        uint64
	pk           *big.Int
}

// NewCoordinator validates that the contributions tile the relation —
// every global shard index hosted exactly once, consistent shape
// metadata, key material, and epoch — and assembles the global
// dimensions the token validation and merge bound need. The client is
// the coordinator's own S2 connection (the merge rounds run on it).
func NewCoordinator(client *cloud.Client, name string, members []Contribution) (*Coordinator, error) {
	if client == nil {
		return nil, fmt.Errorf("cluster: nil client")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: relation %q has no contributing members", name)
	}
	first := members[0].Info
	if first.Total < 1 {
		return nil, fmt.Errorf("cluster: member %s announces shard total %d", members[0].Member, first.Total)
	}
	c := &Coordinator{
		client: client, name: name, members: members,
		total: first.Total, m: first.M, maxScoreBits: first.MaxScoreBits,
		epoch: first.Epoch, pk: first.PK,
	}
	owner := make(map[int]string, c.total)
	for _, mc := range members {
		info := mc.Info
		if info.Relation != name {
			return nil, fmt.Errorf("cluster: member %s contributed relation %q to placement of %q", mc.Member, info.Relation, name)
		}
		if info.Total != c.total || info.M != c.m || info.MaxScoreBits != c.maxScoreBits {
			return nil, fmt.Errorf("cluster: member %s shape (P=%d, m=%d, scorebits=%d) differs from member %s (P=%d, m=%d, scorebits=%d)",
				mc.Member, info.Total, info.M, info.MaxScoreBits, members[0].Member, c.total, c.m, c.maxScoreBits)
		}
		if info.Epoch != c.epoch {
			return nil, fmt.Errorf("cluster: member %s hosts epoch %d but member %s hosts epoch %d — re-provision before joining",
				mc.Member, info.Epoch, members[0].Member, c.epoch)
		}
		if info.PK == nil || c.pk == nil || info.PK.Cmp(c.pk) != 0 {
			return nil, fmt.Errorf("cluster: member %s announces different key material than member %s", mc.Member, members[0].Member)
		}
		if len(info.Rows) != len(info.Indices) {
			return nil, fmt.Errorf("cluster: member %s announces %d row counts for %d shards", mc.Member, len(info.Rows), len(info.Indices))
		}
		for j, ix := range info.Indices {
			if ix < 0 || ix >= c.total {
				return nil, fmt.Errorf("cluster: member %s announces shard index %d out of range [0,%d)", mc.Member, ix, c.total)
			}
			if prev, dup := owner[ix]; dup {
				return nil, fmt.Errorf("cluster: shard %d of %q hosted by both %s and %s", ix, name, prev, mc.Member)
			}
			owner[ix] = mc.Member
			c.n += info.Rows[j]
		}
	}
	if len(owner) != c.total {
		missing := make([]int, 0, c.total-len(owner))
		for ix := 0; ix < c.total; ix++ {
			if _, ok := owner[ix]; !ok {
				missing = append(missing, ix)
			}
		}
		return nil, fmt.Errorf("cluster: placement of %q does not tile the relation: shards %v unhosted", name, missing)
	}
	// Deterministic fan-out order (members sorted by their first shard)
	// keeps logs and traffic stable across restarts; the merge itself
	// reassembles candidate sets in global shard order regardless.
	sort.SliceStable(c.members, func(i, j int) bool {
		return c.members[i].Info.Indices[0] < c.members[j].Info.Indices[0]
	})
	return c, nil
}

// Relation returns the placement's relation id.
func (c *Coordinator) Relation() string { return c.name }

// N and M return the global relation dimensions; Shards the global shard
// count P; Members the member count; Epoch the pinned relation epoch.
func (c *Coordinator) N() int        { return c.n }
func (c *Coordinator) M() int        { return c.m }
func (c *Coordinator) Shards() int   { return c.total }
func (c *Coordinator) Members() int  { return len(c.members) }
func (c *Coordinator) Epoch() uint64 { return c.epoch }
func (c *Coordinator) PK() *big.Int  { return c.pk }

// MemberIDs returns the contributing members' identities in fan-out
// order.
func (c *Coordinator) MemberIDs() []string {
	ids := make([]string, len(c.members))
	for i, m := range c.members {
		ids[i] = m.Member
	}
	return ids
}

// ValidateToken checks a token against the global relation dimensions —
// the same checks a single node hosting all shards would make.
func (c *Coordinator) ValidateToken(tk *core.Token) error {
	return core.ValidateToken(tk, c.m, c.n)
}

// SecQuery executes one distributed top-k query through the coordinator
// rounds: fan-out, merge-and-certify, and — only when certification
// fails — the exact-rescan fallback. The result is revealed-identical to
// a single node hosting every shard.
func (c *Coordinator) SecQuery(ctx context.Context, tk *core.Token, opts core.Options) (*core.QueryResult, error) {
	if err := c.ValidateToken(tk); err != nil {
		return nil, err
	}
	tkBytes, err := encodeToken(tk)
	if err != nil {
		return nil, err
	}
	st := &state{c: c, tk: tk, tkBytes: tkBytes, opts: opts}
	var r round = &roundFanOut{st: st}
	for r != nil {
		r, err = r.run(ctx)
		if err != nil {
			return nil, err
		}
	}
	return st.res, nil
}

// encodeToken serializes the token once per query; every member receives
// the same bytes.
func encodeToken(tk *core.Token) ([]byte, error) {
	var buf bytes.Buffer
	if err := secio.WriteToken(&buf, tk); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
