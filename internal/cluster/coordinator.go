// Package cluster fans one top-k query out across many S1 processes and
// merges the results under the same NRA-style soundness argument as the
// in-process shard merge — with the same code: a front door is a
// shard.Engine whose sources are cluster members.
//
// The placement model is a tiling: a relation is Split round-robin into
// P shards (internal/shard), and every cluster member hosts a disjoint
// subset of those shards under the owner's shared keys, provisioned via
// the secio "hosted-subset" handoff format. NewCoordinator — the query
// front door's constructor — takes each member's subset from its Hello,
// validates that the subsets agree on shape metadata, key material and
// epoch, and returns the shard engine over one source per member: the
// engine checks that the subsets tile the relation exactly, fans every
// query out (a member's Run is one Candidates call over the wire),
// reassembles the P candidate sets in global shard order, merges, and —
// only when the merge bound check cannot certify — repeats the fan-out
// with ExactScan (ledger event ClusterMerge, metric scope "cluster").
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

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/secerr"
	"repro/internal/secio"
	"repro/internal/shard"
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

// NewCoordinator validates that the contributions agree on shape
// metadata, key material and epoch, and returns the sharded engine that
// serves distributed top-k queries over them (which checks the tiling).
// The client is the front door's own S2 connection (the merge rounds run
// on it).
func NewCoordinator(client *cloud.Client, name string, members []Contribution) (*shard.Engine, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: relation %q has no contributing members", name)
	}
	first := members[0].Info
	n := 0
	for _, mc := range members {
		info := mc.Info
		if info.Relation != name {
			return nil, fmt.Errorf("cluster: member %s contributed relation %q to placement of %q", mc.Member, info.Relation, name)
		}
		if info.Total != first.Total || info.M != first.M || info.MaxScoreBits != first.MaxScoreBits {
			return nil, fmt.Errorf("cluster: member %s shape (P=%d, m=%d, scorebits=%d) differs from member %s (P=%d, m=%d, scorebits=%d)",
				mc.Member, info.Total, info.M, info.MaxScoreBits, members[0].Member, first.Total, first.M, first.MaxScoreBits)
		}
		if info.Epoch != first.Epoch {
			return nil, fmt.Errorf("cluster: member %s hosts epoch %d but member %s hosts epoch %d — re-provision before joining",
				mc.Member, info.Epoch, members[0].Member, first.Epoch)
		}
		if info.PK == nil || first.PK == nil || info.PK.Cmp(first.PK) != 0 {
			return nil, fmt.Errorf("cluster: member %s announces different key material than member %s", mc.Member, members[0].Member)
		}
		if len(info.Rows) != len(info.Indices) {
			return nil, fmt.Errorf("cluster: member %s announces %d row counts for %d shards", mc.Member, len(info.Rows), len(info.Indices))
		}
		for _, rows := range info.Rows {
			n += rows
		}
	}
	// The members' calls run concurrently, so their order is immaterial:
	// the engine reassembles candidate sets in global shard order.
	sources := make([]shard.Source, len(members))
	for i, mc := range members {
		sources[i] = memberSource(name, first.Epoch, mc)
	}
	engine, err := shard.NewFanOut(client, "cluster", first.Total, first.M, n, first.MaxScoreBits, sources)
	if err != nil {
		return nil, fmt.Errorf("cluster: placement of %q: %w", name, err)
	}
	return engine, nil
}

// memberSource is one member as a fan-out source: Run is one Candidates
// call pinned to the placement's epoch. A failed link is wrapped as a
// typed unavailable error naming the member, so a half-up cluster is
// diagnosable from the message alone.
func memberSource(relation string, epoch uint64, mc Contribution) shard.Source {
	return shard.Source{
		Name:    "member " + mc.Member,
		Indices: mc.Info.Indices,
		Run: func(ctx context.Context, tk *core.Token, opts core.Options) ([]*core.CandidateSet, error) {
			var token bytes.Buffer
			if err := secio.WriteToken(&token, tk); err != nil {
				return nil, err
			}
			req := CandidatesRequest{Relation: relation, Token: token.Bytes(), Options: opts, Epoch: epoch}
			var reply CandidatesReply
			if err := mc.Caller.Call(ctx, MethodCandidates, req, &reply); err != nil {
				if secerr.CodeOf(err) == secerr.CodeTransport {
					return nil, secerr.Wrap(secerr.CodeUnavailable, err, "cluster: member %s unreachable", mc.Member)
				}
				return nil, secerr.Wrap(secerr.CodeOf(err), err, "cluster: member %s", mc.Member)
			}
			sets := make([]*core.CandidateSet, len(reply.Sets))
			for i, b := range reply.Sets {
				cs, err := secio.ReadCandidates(bytes.NewReader(b))
				if err != nil {
					return nil, secerr.Wrap(secerr.CodeBadRequest, err, "cluster: member %s candidate set %d", mc.Member, i)
				}
				sets[i] = cs
			}
			return sets, nil
		},
	}
}
