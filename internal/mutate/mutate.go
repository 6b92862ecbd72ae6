// Package mutate is the live mutation plane for hosted encrypted
// relations: versioned snapshots of sharded encrypted stores plus the
// delta bundles the owner ships to evolve them without re-encrypting.
//
// The paper's protocol is encrypt-once — every hosted list is frozen at
// Enc time. This package relaxes that with a tombstone layout that
// keeps the query machinery untouched: each shard's permuted sorted
// lists store their LIVE entries first, in exactly the order a fresh
// encryption of the surviving rows would produce, with tombstoned
// (dead) entries appended at the tail. The live view handed to the
// query engine is the [:live] prefix of every list, so tombstones are
// excluded from SecQueryCandidates by construction — the "tombstone set
// consulted before EncSelectTop" is realized structurally rather than
// by per-candidate filtering, which would leak which candidates were
// deleted mid-query.
//
// Deltas address entries by position, not by identity: the data cloud
// never learns which ciphertext belongs to which object, only that the
// entry at live position p of list l died, or that a fresh encrypted
// entry belongs at sorted position q. Positions are computed by the
// owner from its plaintext mirror (which replicates the deterministic
// sort order of core.EncryptRelationWithIDs: score descending, ties by
// global id ascending), so after Apply the live prefix of every list is
// byte-for-byte the layout a fresh encryption would have produced.
//
// Snapshots are immutable: Apply and Compact are copy-on-write and
// return a new *Relation with the epoch advanced; readers holding the
// old snapshot keep a fully consistent view. Epoch mismatches fail
// typed (secerr.CodeRelationStale) so retries are deliberate.
package mutate

import (
	"repro/internal/core"
	"repro/internal/secerr"
)

// DeleteRow tombstones one live row. Pos[p] is the row's entry position
// in list p of the BASE epoch's live view; all deletes in one delta are
// interpreted against that same base view and removed as a set.
type DeleteRow struct {
	// ID is the global object id being tombstoned. The data cloud does
	// not need it to apply the delta (positions suffice) but records it
	// in the shard's tombstone set for compaction accounting — the id is
	// already public to S1 as leakage of the delete operation itself.
	ID  int
	Pos []int
}

// InsertRow adds one fresh encrypted row. Pos[p] is the entry's sorted
// position in list p of the FINAL live view — after every delete and
// every insert of the enclosing delta has landed — and Items[p] is the
// encrypted cell (EHL(id), Enc(score)) destined for list p.
type InsertRow struct {
	ID    int
	Pos   []int
	Items []core.EncItem
}

// ShardDelta is one shard's slice of a delta: deletes against the base
// live view plus inserts into the final live view.
type ShardDelta struct {
	Shard   int
	Deletes []DeleteRow
	Inserts []InsertRow
}

// Delta is one atomic mutation bundle. It applies to exactly the
// relation state at BaseEpoch: applying against any other epoch fails
// with secerr.CodeRelationStale. ID is the idempotency key — the
// hosting side records applied IDs so a retried Apply is a no-op that
// reports the epoch the first application produced.
type Delta struct {
	BaseEpoch uint64
	ID        string
	Shards    []ShardDelta
}

// Rows returns (inserted, deleted) row counts across all shards.
func (d *Delta) Rows() (ins, del int) {
	for _, sd := range d.Shards {
		ins += len(sd.Inserts)
		del += len(sd.Deletes)
	}
	return
}

// Shard is one shard of a mutable relation. ER.N counts LIVE rows; each
// of ER's lists holds ER.N live entries (sorted) followed by Dead
// tombstoned entries. Every delete retires exactly one entry per list,
// so the dead tail length is uniform across the shard's lists.
type Shard struct {
	ER *core.EncryptedRelation
	// Dead is the tombstoned-entry count per list.
	Dead int
	// DeadIDs are the global ids whose rows are tombstoned and not
	// re-inserted (an update re-inserts its id, keeping it live even
	// though the superseded entries joined the dead tail).
	DeadIDs []int
}

// LiveView returns the shard as the query engine must see it: the same
// metadata with every list truncated to its live prefix. The subslices
// share backing arrays with the stored lists — snapshots are immutable,
// so structural sharing is safe.
func (s *Shard) LiveView() *core.EncryptedRelation {
	lists := make([][]core.EncItem, len(s.ER.Lists))
	for p, l := range s.ER.Lists {
		lists[p] = l[:s.ER.N]
	}
	return &core.EncryptedRelation{
		Name: s.ER.Name, N: s.ER.N, M: s.ER.M,
		EHLParams:    s.ER.EHLParams,
		MaxScoreBits: s.ER.MaxScoreBits,
		Lists:        lists,
	}
}

// Relation is one epoch's immutable snapshot of a mutable hosted
// relation.
type Relation struct {
	// Epoch is the monotonic version; a fresh hosting starts at 1.
	Epoch uint64
	// IDSpace is the exclusive upper bound on global object ids ever
	// assigned (live or dead) — the revealer must cover [0, IDSpace).
	IDSpace int
	Shards  []*Shard
}

// New wraps a fresh shard encryption as epoch-1 mutable state. idSpace
// of 0 defaults to the total row count (fresh encryptions number rows
// 0..n-1).
func New(shards []*core.EncryptedRelation, idSpace int) (*Relation, error) {
	if len(shards) == 0 {
		return nil, secerr.New(secerr.CodeBadRequest, "mutate: no shards")
	}
	r := &Relation{Epoch: 1, IDSpace: idSpace, Shards: make([]*Shard, len(shards))}
	total := 0
	for i, er := range shards {
		if er == nil {
			return nil, secerr.New(secerr.CodeBadRequest, "mutate: nil shard %d", i)
		}
		r.Shards[i] = &Shard{ER: er}
		total += er.N
	}
	if r.IDSpace < total {
		r.IDSpace = total
	}
	return r, nil
}

// LiveShards returns every shard's live view, the slice the sharded
// query engine is rebuilt over after each epoch change.
func (r *Relation) LiveShards() []*core.EncryptedRelation {
	out := make([]*core.EncryptedRelation, len(r.Shards))
	for i, s := range r.Shards {
		out[i] = s.LiveView()
	}
	return out
}

// LiveRows returns the live row count across shards.
func (r *Relation) LiveRows() int {
	n := 0
	for _, s := range r.Shards {
		n += s.ER.N
	}
	return n
}

// DeadRows returns the tombstoned-row count across shards.
func (r *Relation) DeadRows() int {
	n := 0
	for _, s := range r.Shards {
		n += s.Dead
	}
	return n
}

// Apply validates the delta against this snapshot and returns the next
// epoch's snapshot. The receiver is never modified; untouched shards
// are shared between snapshots. Epoch mismatch fails with
// secerr.CodeRelationStale; structural problems (positions out of
// range, duplicate targets, shape mismatches) fail with
// secerr.CodeBadRequest before any state is built, so a rejected delta
// leaves nothing behind.
func (r *Relation) Apply(d *Delta) (*Relation, error) {
	if d == nil {
		return nil, secerr.New(secerr.CodeBadRequest, "mutate: nil delta")
	}
	if d.BaseEpoch != r.Epoch {
		return nil, secerr.New(secerr.CodeRelationStale,
			"mutate: delta targets epoch %d, relation is at epoch %d", d.BaseEpoch, r.Epoch)
	}
	next := &Relation{Epoch: r.Epoch + 1, IDSpace: r.IDSpace, Shards: make([]*Shard, len(r.Shards))}
	copy(next.Shards, r.Shards)
	seen := make(map[int]bool, len(d.Shards))
	for _, sd := range d.Shards {
		if sd.Shard < 0 || sd.Shard >= len(r.Shards) {
			return nil, secerr.New(secerr.CodeBadRequest, "mutate: shard %d out of range [0,%d)", sd.Shard, len(r.Shards))
		}
		if seen[sd.Shard] {
			return nil, secerr.New(secerr.CodeBadRequest, "mutate: duplicate shard %d in delta", sd.Shard)
		}
		seen[sd.Shard] = true
		ns, err := applyShard(r.Shards[sd.Shard], &sd)
		if err != nil {
			return nil, err
		}
		next.Shards[sd.Shard] = ns
		for _, ins := range sd.Inserts {
			if ins.ID >= next.IDSpace {
				next.IDSpace = ins.ID + 1
			}
		}
	}
	return next, nil
}

// applyShard builds one shard's next state. For every list: delete
// positions (base live view) are removed as a set, surviving entries
// keep their relative order, inserts land at their final positions, and
// the removed entries join the dead tail.
func applyShard(s *Shard, sd *ShardDelta) (*Shard, error) {
	m := s.ER.M
	live := s.ER.N
	finalLen := live - len(sd.Deletes) + len(sd.Inserts)
	if finalLen < 0 || live-len(sd.Deletes) < 0 {
		return nil, secerr.New(secerr.CodeBadRequest, "mutate: shard %d: %d deletes exceed %d live rows", sd.Shard, len(sd.Deletes), live)
	}
	for _, del := range sd.Deletes {
		if len(del.Pos) != m {
			return nil, secerr.New(secerr.CodeBadRequest, "mutate: shard %d: delete has %d positions for m=%d", sd.Shard, len(del.Pos), m)
		}
	}
	for _, ins := range sd.Inserts {
		if len(ins.Pos) != m || len(ins.Items) != m {
			return nil, secerr.New(secerr.CodeBadRequest, "mutate: shard %d: insert has %d positions / %d items for m=%d", sd.Shard, len(ins.Pos), len(ins.Items), m)
		}
		for p, it := range ins.Items {
			if it.EHL == nil || it.Score == nil || len(it.EHL.Cts) != s.ER.EHLParams.Width() {
				return nil, secerr.New(secerr.CodeBadRequest, "mutate: shard %d: insert item for list %d is incomplete or not %d digests wide",
					sd.Shard, p, s.ER.EHLParams.Width())
			}
		}
	}
	ns := &Shard{
		ER: &core.EncryptedRelation{
			Name: s.ER.Name, N: finalLen, M: m,
			EHLParams:    s.ER.EHLParams,
			MaxScoreBits: s.ER.MaxScoreBits,
			Lists:        make([][]core.EncItem, m),
		},
		Dead: s.Dead + len(sd.Deletes),
	}
	for p := 0; p < m; p++ {
		oldList := s.ER.Lists[p]
		// Mark the base live view's deleted positions.
		dead := make(map[int]bool, len(sd.Deletes))
		for _, del := range sd.Deletes {
			pos := del.Pos[p]
			if pos < 0 || pos >= live {
				return nil, secerr.New(secerr.CodeBadRequest, "mutate: shard %d list %d: delete position %d out of live range [0,%d)", sd.Shard, p, pos, live)
			}
			if dead[pos] {
				return nil, secerr.New(secerr.CodeBadRequest, "mutate: shard %d list %d: duplicate delete position %d", sd.Shard, p, pos)
			}
			dead[pos] = true
		}
		// Place inserts at their final-view positions.
		newList := make([]core.EncItem, finalLen, finalLen+s.Dead+len(sd.Deletes))
		placed := make(map[int]bool, len(sd.Inserts))
		for _, ins := range sd.Inserts {
			pos := ins.Pos[p]
			if pos < 0 || pos >= finalLen {
				return nil, secerr.New(secerr.CodeBadRequest, "mutate: shard %d list %d: insert position %d out of final range [0,%d)", sd.Shard, p, pos, finalLen)
			}
			if placed[pos] {
				return nil, secerr.New(secerr.CodeBadRequest, "mutate: shard %d list %d: duplicate insert position %d", sd.Shard, p, pos)
			}
			placed[pos] = true
			newList[pos] = ins.Items[p]
		}
		// Stream survivors, in order, into the unclaimed slots.
		out := 0
		removed := make([]core.EncItem, 0, len(sd.Deletes))
		for i := 0; i < live; i++ {
			if dead[i] {
				removed = append(removed, oldList[i])
				continue
			}
			for placed[out] {
				out++
			}
			if out >= finalLen {
				return nil, secerr.New(secerr.CodeInternal, "mutate: shard %d list %d: survivor overflow", sd.Shard, p)
			}
			newList[out] = oldList[i]
			out++
		}
		// Dead tail: the prior tail plus this delta's removals.
		newList = append(newList, oldList[live:]...)
		newList = append(newList, removed...)
		ns.ER.Lists[p] = newList
	}
	// Tombstone-set accounting: deleted ids minus re-inserted ids (an
	// update keeps its id live), unioned with the prior dead set.
	reborn := make(map[int]bool, len(sd.Inserts))
	for _, ins := range sd.Inserts {
		reborn[ins.ID] = true
	}
	for _, id := range s.DeadIDs {
		if !reborn[id] {
			ns.DeadIDs = append(ns.DeadIDs, id)
		}
	}
	for _, del := range sd.Deletes {
		if !reborn[del.ID] {
			ns.DeadIDs = append(ns.DeadIDs, del.ID)
		}
	}
	return ns, nil
}

// Compact folds every shard's tombstones away: lists are truncated to
// their live prefixes (copied, so the new snapshot owns its storage)
// and the dead tails dropped. The epoch advances — compaction changes
// what a position means, so in-flight deltas against the old epoch must
// fail stale rather than land on reshuffled lists.
func (r *Relation) Compact() *Relation {
	next := &Relation{Epoch: r.Epoch + 1, IDSpace: r.IDSpace, Shards: make([]*Shard, len(r.Shards))}
	for i, s := range r.Shards {
		lists := make([][]core.EncItem, len(s.ER.Lists))
		for p, l := range s.ER.Lists {
			lists[p] = append([]core.EncItem(nil), l[:s.ER.N]...)
		}
		next.Shards[i] = &Shard{ER: &core.EncryptedRelation{
			Name: s.ER.Name, N: s.ER.N, M: s.ER.M,
			EHLParams:    s.ER.EHLParams,
			MaxScoreBits: s.ER.MaxScoreBits,
			Lists:        lists,
		}}
	}
	return next
}
