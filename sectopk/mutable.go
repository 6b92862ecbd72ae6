package sectopk

import (
	"crypto/rand"
	"encoding/hex"
	"io"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/mutate"
	"repro/internal/paillier"
	"repro/internal/secerr"
	"repro/internal/secio"
)

// Delta is one atomic encrypted mutation bundle the owner produces
// (InsertRows, DeleteRows, UpdateScores) and ships to the data cloud
// (DataCloud.Apply in process, Client.Apply over the wire). It carries
// only public material — fresh ciphertexts for inserted cells and list
// positions for tombstones — plus the idempotency key that makes a
// retried Apply exactly-once.
type Delta struct {
	d      *mutate.Delta
	params ehl.Params
}

// ID returns the delta's idempotency key.
func (d *Delta) ID() string { return d.d.ID }

// BaseEpoch returns the relation epoch this delta applies to.
func (d *Delta) BaseEpoch() uint64 { return d.d.BaseEpoch }

// Rows returns the (inserted, deleted) row counts. An updated row
// counts once in each.
func (d *Delta) Rows() (inserted, deleted int) { return d.d.Rows() }

// newDeltaID draws the idempotency key for one delta. A query carries no
// key — a retried query is a second run of its token — but a delta must
// land exactly once, which hangs on this key, so an entropy failure is an
// error.
func newDeltaID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", secerr.Wrap(secerr.CodeInternal, err, "sectopk: drawing delta id")
	}
	return hex.EncodeToString(b[:]), nil
}

// MutableRelation is the owner's handle on a live-updatable encrypted
// relation. It keeps two synchronized views: the plaintext mirror (the
// live rows with their global ids — what the owner needs to compute
// sorted positions) and the ciphertext shadow (an exact copy of the
// hosted state, advanced through the same mutate.Apply the data cloud
// runs, so the owner can re-derive tokens, save a re-hostable bundle,
// or compare against a fresh encryption at any epoch).
//
// The intended loop is: produce a delta (InsertRows / DeleteRows /
// UpdateScores), ship it with DataCloud.Apply or Client.Apply —
// retrying the same delta is safe, the idempotency key dedups it —
// then Adopt the epoch the Apply reported. Deltas must be applied in
// the order they were produced; the epoch fencing rejects anything
// else as ErrRelationStale.
//
// All methods are safe for concurrent use.
type MutableRelation struct {
	owner *Owner
	name  string
	m, p  int

	mu     sync.Mutex
	rows   map[int][]int64 // live plaintext rows by global id
	nextID int             // id allocator high-water mark
	state  *mutate.Relation
}

// NewMutable opens a freshly encrypted relation for live updates. rel
// must be the exact plaintext Encrypt consumed (the mirror replays the
// encryption's deterministic row-id assignment: row i carries global id
// i, round-robin across er's shards), and er must be unmutated — an
// already-evolved relation reopens from the owner bundle
// (MutableRelation.Save / Owner.LoadMutable) instead, which carries the
// mirror at the right epoch.
func (o *Owner) NewMutable(rel *Relation, er *EncryptedRelation) (*MutableRelation, error) {
	if rel == nil || er == nil {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: nil relation or encrypted relation")
	}
	if er.indices != nil {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: relation is a cluster member's share; open the whole relation")
	}
	if er.Epoch() != 1 || (er.mst != nil && er.mst.DeadRows() > 0) {
		return nil, secerr.New(secerr.CodeBadRequest,
			"sectopk: relation already mutated (epoch %d); reopen it from the owner bundle", er.Epoch())
	}
	n := er.sh.N
	if len(rel.Rows) != n {
		return nil, secerr.New(secerr.CodeBadRequest,
			"sectopk: plaintext has %d rows, encrypted relation has %d", len(rel.Rows), n)
	}
	m := er.sh.M
	state, err := er.mutableState()
	if err != nil {
		return nil, err
	}
	mr := &MutableRelation{
		owner: o, name: er.Name(), m: m, p: len(er.sh.Shards),
		rows: make(map[int][]int64, n), nextID: n, state: state,
	}
	for i, row := range rel.Rows {
		if len(row) != m {
			return nil, secerr.New(secerr.CodeBadRequest,
				"sectopk: row %d has %d attributes, relation has %d", i, len(row), m)
		}
		mr.rows[i] = append([]int64(nil), row...)
	}
	return mr, nil
}

// Name returns the relation's name.
func (mr *MutableRelation) Name() string { return mr.name }

// Epoch returns the epoch of the owner's shadow state — the epoch the
// next produced delta will target.
func (mr *MutableRelation) Epoch() uint64 {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return mr.state.Epoch
}

// LiveRows returns the live row count.
func (mr *MutableRelation) LiveRows() int {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return len(mr.rows)
}

// Encrypted returns the relation's current encrypted view — what the
// data cloud hosts at this epoch. Use it to (re-)Host after loading an
// owner bundle, to Save an epoch-stamped hosted bundle, or to issue
// tokens and reveal results at the current epoch.
func (mr *MutableRelation) Encrypted() (*EncryptedRelation, error) {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return newEncryptedRelation(mr.state, mr.owner.scheme.PublicKey(), 0, nil)
}

// Token issues a trapdoor valid against the current epoch's live rows.
func (mr *MutableRelation) Token(q Query) (*Token, error) {
	mr.mu.Lock()
	n := mr.state.LiveRows()
	mr.mu.Unlock()
	tk, err := mr.owner.scheme.TokenFor(n, mr.m, q.Attrs, q.Weights, q.K)
	if err != nil {
		return nil, secerr.Wrap(secerr.CodeInvalidToken, err, "sectopk: token")
	}
	return &Token{tk: tk}, nil
}

// InsertRows produces a delta adding fresh rows under newly allocated
// global ids, placed round-robin across the relation's shards (id mod
// P — the same placement Enc used, so shard membership stays a pure
// function of the id). The delta is already applied to the owner's
// shadow when this returns; ship it before producing the next one.
func (mr *MutableRelation) InsertRows(rows [][]int64) (*Delta, error) {
	if len(rows) == 0 {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: no rows to insert")
	}
	return mr.mutate(rows, nil, nil)
}

// DeleteRows produces a delta tombstoning the given global ids. The
// rows leave every query's view at the epoch the Apply lands; their
// ciphertexts remain on the dead tails until a compaction folds them.
func (mr *MutableRelation) DeleteRows(ids []int) (*Delta, error) {
	if len(ids) == 0 {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: no rows to delete")
	}
	return mr.mutate(nil, ids, nil)
}

// UpdateScores produces a delta replacing the attribute vectors of
// existing rows, keyed by global id. An update is a delete plus an
// insert of the same id inside one atomic delta: the superseded
// ciphertexts join the dead tail, the fresh ones land at their sorted
// positions, and the id stays live throughout.
func (mr *MutableRelation) UpdateScores(updates map[int][]int64) (*Delta, error) {
	if len(updates) == 0 {
		return nil, secerr.New(secerr.CodeBadRequest, "sectopk: no rows to update")
	}
	return mr.mutate(nil, nil, updates)
}

// idRow pairs a global id with its attribute vector for sorting.
type idRow struct {
	id  int
	row []int64
}

// attrPositions returns each id's position in the list that attribute
// j's sorted order produces: score descending, ties by id ascending —
// exactly core.EncryptRelationWithIDs's layout, which is what keeps a
// mutated live prefix byte-compatible with a fresh encryption.
func attrPositions(entries []idRow, j int) map[int]int {
	order := make([]idRow, len(entries))
	copy(order, entries)
	sort.Slice(order, func(x, y int) bool {
		if order[x].row[j] != order[y].row[j] {
			return order[x].row[j] > order[y].row[j]
		}
		return order[x].id < order[y].id
	})
	pos := make(map[int]int, len(order))
	for i, e := range order {
		pos[e.id] = i
	}
	return pos
}

// mutate is the shared delta builder: deletes and updates name existing
// live ids, inserts carry fresh rows. It computes per-shard,
// per-permuted-list positions from the plaintext mirror, encrypts the
// inserted cells, applies the delta to the shadow state, and commits
// the mirror — all-or-nothing.
func (mr *MutableRelation) mutate(inserts [][]int64, deletes []int, updates map[int][]int64) (*Delta, error) {
	mr.mu.Lock()
	defer mr.mu.Unlock()

	// Resolve the delete set (deleted ids plus updated ids) and the
	// insert set (fresh rows plus updated rows under their old ids).
	delSet := make(map[int]bool, len(deletes)+len(updates))
	for _, id := range deletes {
		if _, live := mr.rows[id]; !live {
			return nil, secerr.New(secerr.CodeBadRequest, "sectopk: row id %d is not live", id)
		}
		if delSet[id] {
			return nil, secerr.New(secerr.CodeBadRequest, "sectopk: duplicate delete of row id %d", id)
		}
		delSet[id] = true
	}
	var ins []idRow
	nextID := mr.nextID
	for _, row := range inserts {
		if err := mr.validRow(row); err != nil {
			return nil, err
		}
		ins = append(ins, idRow{id: nextID, row: row})
		nextID++
	}
	// Deterministic order over the update map keys, so the same logical
	// mutation always builds the same delta.
	updIDs := make([]int, 0, len(updates))
	for id := range updates {
		updIDs = append(updIDs, id)
	}
	sort.Ints(updIDs)
	for _, id := range updIDs {
		if _, live := mr.rows[id]; !live {
			return nil, secerr.New(secerr.CodeBadRequest, "sectopk: row id %d is not live", id)
		}
		if delSet[id] {
			return nil, secerr.New(secerr.CodeBadRequest, "sectopk: row id %d both deleted and updated", id)
		}
		if err := mr.validRow(updates[id]); err != nil {
			return nil, err
		}
		delSet[id] = true
		ins = append(ins, idRow{id: id, row: updates[id]})
	}

	// Group the work by shard (shard membership is id mod P).
	delByShard := make(map[int][]int, mr.p)
	for id := range delSet {
		delByShard[id%mr.p] = append(delByShard[id%mr.p], id)
	}
	insByShard := make(map[int][]idRow, mr.p)
	for _, in := range ins {
		insByShard[in.id%mr.p] = append(insByShard[in.id%mr.p], in)
	}
	touched := make(map[int]bool, mr.p)
	for s := range delByShard {
		touched[s] = true
	}
	for s := range insByShard {
		touched[s] = true
	}
	shardIDs := make([]int, 0, len(touched))
	for s := range touched {
		shardIDs = append(shardIDs, s)
	}
	sort.Ints(shardIDs)

	perm, err := mr.owner.scheme.PermutedPositions(mr.m)
	if err != nil {
		return nil, err
	}
	id, err := newDeltaID()
	if err != nil {
		return nil, err
	}
	d := &mutate.Delta{BaseEpoch: mr.state.Epoch, ID: id}
	for _, s := range shardIDs {
		sd, err := mr.shardDelta(s, delByShard[s], insByShard[s], delSet, perm)
		if err != nil {
			return nil, err
		}
		d.Shards = append(d.Shards, *sd)
	}

	// Advance the shadow through the exact code path the data cloud
	// runs; only then commit the mirror.
	next, err := mr.state.Apply(d)
	if err != nil {
		return nil, err
	}
	mr.state = next
	mr.nextID = nextID
	for id := range delSet {
		delete(mr.rows, id)
	}
	for _, in := range ins {
		mr.rows[in.id] = append([]int64(nil), in.row...)
	}
	return &Delta{d: d, params: mr.owner.scheme.Params().EHL}, nil
}

// shardDelta builds one shard's slice of the delta: delete positions
// against the shard's base live order, insert positions against its
// final live order, fresh ciphertexts for every inserted cell.
func (mr *MutableRelation) shardDelta(s int, delIDs []int, ins []idRow, delSet map[int]bool, perm []int) (*mutate.ShardDelta, error) {
	// Base = the shard's live rows before this delta; final = after.
	var base, final []idRow
	for id, row := range mr.rows {
		if id%mr.p != s {
			continue
		}
		base = append(base, idRow{id: id, row: row})
		if !delSet[id] {
			final = append(final, idRow{id: id, row: row})
		}
	}
	for _, in := range ins {
		final = append(final, idRow{id: in.id, row: in.row})
	}
	sd := &mutate.ShardDelta{Shard: s}
	// One position map per attribute, reused across all rows of this
	// shard; mapped through the PRP so Pos is indexed by stored list.
	basePos := make([]map[int]int, mr.m)
	finalPos := make([]map[int]int, mr.m)
	for j := 0; j < mr.m; j++ {
		basePos[j] = attrPositions(base, j)
		finalPos[j] = attrPositions(final, j)
	}
	sort.Ints(delIDs)
	for _, id := range delIDs {
		pos := make([]int, mr.m)
		for j := 0; j < mr.m; j++ {
			pos[perm[j]] = basePos[j][id]
		}
		sd.Deletes = append(sd.Deletes, mutate.DeleteRow{ID: id, Pos: pos})
	}
	for _, in := range ins {
		pos := make([]int, mr.m)
		items := make([]core.EncItem, mr.m)
		for j := 0; j < mr.m; j++ {
			pos[perm[j]] = finalPos[j][in.id]
			it, err := mr.owner.scheme.EncryptEntry(in.id, in.row[j])
			if err != nil {
				return nil, secerr.Wrap(secerr.CodeBadRequest, err, "sectopk: encrypting inserted cell")
			}
			items[perm[j]] = it
		}
		sd.Inserts = append(sd.Inserts, mutate.InsertRow{ID: in.id, Pos: pos, Items: items})
	}
	return sd, nil
}

// validRow checks one attribute vector's shape (range checks happen in
// EncryptEntry, which owns the score-bit bound).
func (mr *MutableRelation) validRow(row []int64) error {
	if len(row) != mr.m {
		return secerr.New(secerr.CodeBadRequest,
			"sectopk: row has %d attributes, relation has %d", len(row), mr.m)
	}
	return nil
}

// Adopt synchronizes the owner's shadow with the epoch an Apply or
// Compact reported. Equal epochs are a no-op; one ahead means the data
// cloud ran a Compact, which the shadow replays — compaction never
// changes live views, so the mirror needs no adjustment. Anything further fails
// with ErrRelationStale: the hosting has moved in a way this owner
// did not produce, and must be re-hosted from the owner's bundle.
func (mr *MutableRelation) Adopt(epoch uint64) error {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	switch epoch {
	case mr.state.Epoch:
		return nil
	case mr.state.Epoch + 1:
		mr.state = mr.state.Compact()
		return nil
	}
	return secerr.New(secerr.CodeRelationStale,
		"sectopk: hosted epoch %d is not adoptable from local epoch %d (re-host from the owner bundle)",
		epoch, mr.state.Epoch)
}

// DeadRows returns the tombstoned-row count awaiting compaction, per
// the owner's shadow.
func (mr *MutableRelation) DeadRows() int {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return mr.state.DeadRows()
}

// Save persists the owner's mutable-relation bundle — plaintext mirror
// plus ciphertext shadow — to a 0600 file. The shadow's ciphertexts
// are not reconstructible (fresh nonces every encryption), so this
// bundle is the only way to resume mutating after a restart with a
// shadow that still matches the hosted bytes. It holds plaintext rows
// and must never leave the owner.
func (mr *MutableRelation) Save(path string) error {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	ids := make([]int, 0, len(mr.rows))
	for id := range mr.rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rows := make([][]int64, len(ids))
	for i, id := range ids {
		rows[i] = mr.rows[id]
	}
	mir := &secio.OwnerMirror{
		Name: mr.name, P: mr.p, M: mr.m,
		NextID: mr.nextID, Epoch: mr.state.Epoch,
		IDs: ids, Rows: rows,
	}
	return saveTo(path, privateFile, func(w io.Writer) error {
		return secio.WriteOwnerMutable(w, mir, mr.state, mr.owner.scheme.PublicKey())
	})
}

// LoadMutable reopens a mutable relation from the bundle
// MutableRelation.Save wrote. The owner must be the one (or a restored
// copy of the one) that encrypted it — foreign key material is
// rejected.
func (o *Owner) LoadMutable(path string) (*MutableRelation, error) {
	var mir *secio.OwnerMirror
	var st *mutate.Relation
	var pk *paillier.PublicKey
	err := loadFrom(path, func(r io.Reader) (err error) {
		mir, st, pk, err = secio.ReadOwnerMutable(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	if pk.N.Cmp(o.scheme.PublicKey().N) != 0 {
		return nil, secerr.New(secerr.CodeBadRequest,
			"sectopk: bundle was encrypted under a different key than this owner holds")
	}
	if mir.P != len(st.Shards) {
		return nil, secerr.New(secerr.CodeBadRequest,
			"sectopk: mirror names %d shards, shadow has %d", mir.P, len(st.Shards))
	}
	if mir.Epoch != st.Epoch {
		return nil, secerr.New(secerr.CodeBadRequest,
			"sectopk: mirror at epoch %d, shadow at epoch %d", mir.Epoch, st.Epoch)
	}
	if st.LiveRows() != len(mir.Rows) {
		return nil, secerr.New(secerr.CodeBadRequest,
			"sectopk: mirror has %d rows, shadow has %d live", len(mir.Rows), st.LiveRows())
	}
	mr := &MutableRelation{
		owner: o, name: mir.Name, m: mir.M, p: mir.P,
		rows: make(map[int][]int64, len(mir.IDs)), nextID: mir.NextID, state: st,
	}
	if mr.nextID < st.IDSpace {
		mr.nextID = st.IDSpace
	}
	for i, id := range mir.IDs {
		if len(mir.Rows[i]) != mir.M {
			return nil, secerr.New(secerr.CodeBadRequest,
				"sectopk: stored row %d has %d attributes, relation has %d", i, len(mir.Rows[i]), mir.M)
		}
		if _, dup := mr.rows[id]; dup {
			return nil, secerr.New(secerr.CodeBadRequest, "sectopk: stored mirror repeats row id %d", id)
		}
		mr.rows[id] = mir.Rows[i]
	}
	return mr, nil
}
