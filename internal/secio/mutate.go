package secio

import (
	"io"

	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/mutate"
	"repro/internal/paillier"
	"repro/internal/wire"
)

// The mutation plane's kinds:
//
//   - "delta": an owner-produced mutation bundle (the Client.Apply wire
//     payload and the `sectopk-node apply` hand-off artifact);
//   - "hosted-mutable": an epoch-stamped hosted relation — the sharded
//     store including tombstone tails, so a mutated hosting round-trips
//     through files without losing its version or compaction debt;
//   - "mutable-owner": the owner's mirror (plaintext rows + id
//     allocator + epoch) bundled with its encrypted shadow state. This
//     stream holds plaintext and must never leave the owner.

// WriteDelta serializes a mutation delta; params are the relation's EHL
// parameters, so the reader can check digest widths without out-of-band
// schema knowledge. Layout: uvarint(BaseEpoch) string(ID) EHL parameters
// uvarint(shard count), then per shard uvarint(Shard), uvarint(delete
// count) and per delete uvarint(ID) uvarint list(Pos), uvarint(insert
// count) and per insert uvarint(ID) uvarint list(Pos) and one cell list
// of len(Pos) cells.
func WriteDelta(w io.Writer, d *mutate.Delta, params ehl.Params) error {
	return write(w, "delta", func(w *wire.Writer) {
		if d == nil {
			w.Fail("secio: nil delta")
			return
		}
		w.Uvarint(d.BaseEpoch)
		w.String(d.ID)
		putEHL(w, params)
		w.Uvarint(uint64(len(d.Shards)))
		for _, sd := range d.Shards {
			w.Int("Shard", sd.Shard)
			w.Uvarint(uint64(len(sd.Deletes)))
			for _, del := range sd.Deletes {
				w.Int("ID", del.ID)
				w.Ints("Pos", del.Pos)
			}
			w.Uvarint(uint64(len(sd.Inserts)))
			for _, ins := range sd.Inserts {
				if len(ins.Items) != len(ins.Pos) {
					w.Fail("secio: insert of %d items at %d positions", len(ins.Items), len(ins.Pos))
					return
				}
				w.Int("ID", ins.ID)
				w.Ints("Pos", ins.Pos)
				putCells(w, "Items", len(ins.Items), params.Width(), func(i int) (*ehl.List, *paillier.Ciphertext) {
					return ins.Items[i].EHL, ins.Items[i].Score
				})
			}
		}
	})
}

// ReadDelta deserializes a mutation delta, returning the EHL parameters
// it was checked against alongside (so a loaded delta can be
// re-serialized without out-of-band schema knowledge).
func ReadDelta(r io.Reader) (*mutate.Delta, ehl.Params, error) {
	var d mutate.Delta
	var params ehl.Params
	err := read(r, "delta", func(r *wire.Reader) {
		d.BaseEpoch, d.ID, params = r.Uvarint(), r.String("ID"), getEHL(r)
		n := r.Count("shards", 3)
		if r.Err() != nil {
			return
		}
		d.Shards = make([]mutate.ShardDelta, n)
		for i := range d.Shards {
			sd := &d.Shards[i]
			sd.Shard = r.Int("Shard")
			if n := r.Count("deletes", 2); n > 0 {
				sd.Deletes = make([]mutate.DeleteRow, n)
			}
			for j := range sd.Deletes {
				sd.Deletes[j] = mutate.DeleteRow{ID: r.Int("ID"), Pos: r.Ints("Pos")}
			}
			if n := r.Count("inserts", 3); n > 0 {
				sd.Inserts = make([]mutate.InsertRow, n)
			}
			for j := range sd.Inserts {
				ins := mutate.InsertRow{ID: r.Int("ID"), Pos: r.Ints("Pos")}
				cells := getCells(r, "Items", len(ins.Pos), params)
				if r.Err() != nil {
					return
				}
				ins.Items = make([]core.EncItem, len(cells))
				for k, c := range cells {
					ins.Items[k] = core.EncItem{EHL: c.ehl, Score: c.ct}
				}
				sd.Inserts[j] = ins
			}
		}
	})
	if err != nil {
		return nil, ehl.Params{}, err
	}
	return &d, params, nil
}

// putMutable emits the shared body of "hosted-mutable" and
// "mutable-owner": integer(N) uvarint(Epoch) uvarint(IDSpace)
// uvarint(shard count), then per shard uvarint(live) uvarint
// list(DeadIDs) and its relation at its full live + dead depth.
func putMutable(w *wire.Writer, st *mutate.Relation, pk *paillier.PublicKey) {
	if st == nil || len(st.Shards) == 0 {
		w.Fail("secio: empty mutable relation")
		return
	}
	putKey(w, pk)
	w.Uvarint(st.Epoch)
	w.Int("IDSpace", st.IDSpace)
	w.Uvarint(uint64(len(st.Shards)))
	for _, s := range st.Shards {
		w.Int("live", s.ER.N)
		w.Ints("DeadIDs", s.DeadIDs)
		putRelation(w, s.ER, s.ER.N+s.Dead)
	}
}

func getMutable(r *wire.Reader) (*mutate.Relation, *paillier.PublicKey) {
	pk := getKey(r)
	st := &mutate.Relation{Epoch: r.Uvarint(), IDSpace: r.Int("IDSpace")}
	n := r.Count("shards", 3)
	if r.Err() == nil && (n < 1 || n > maxShardCount || st.Epoch == 0) {
		r.Fail("secio: mutable relation of %d shards at epoch %d", n, st.Epoch)
	}
	if r.Err() != nil {
		return nil, nil
	}
	st.Shards = make([]*mutate.Shard, n)
	for i := range st.Shards {
		live, deadIDs := r.Int("live"), r.Ints("DeadIDs")
		er := getRelation(r)
		if r.Err() == nil && live > er.N {
			r.Fail("secio: shard %d live count %d exceeds its depth %d", i, live, er.N)
		}
		if r.Err() != nil {
			return nil, nil
		}
		st.Shards[i] = &mutate.Shard{ER: er, Dead: er.N - live, DeadIDs: deadIDs}
		er.N = live
	}
	return st, pk
}

// WriteMutableHosted serializes an epoch-stamped hosted relation: the
// full mutable state (live prefixes, tombstone tails, epoch, id space)
// plus the public key — everything the data cloud needs to host it and
// keep applying deltas against it.
func WriteMutableHosted(w io.Writer, st *mutate.Relation, pk *paillier.PublicKey) error {
	return write(w, "hosted-mutable", func(w *wire.Writer) { putMutable(w, st, pk) })
}

// ReadMutableHosted deserializes an epoch-stamped hosted relation.
func ReadMutableHosted(r io.Reader) (st *mutate.Relation, pk *paillier.PublicKey, err error) {
	if err := read(r, "hosted-mutable", func(r *wire.Reader) { st, pk = getMutable(r) }); err != nil {
		return nil, nil, err
	}
	return st, pk, nil
}

// OwnerMirror is the owner-side plaintext mirror of a mutable relation:
// the live rows with their global ids, the id allocator's high-water
// mark, and the epoch the owner believes the hosting is at. The facade
// owns the semantics; this is only its persistence shape.
type OwnerMirror struct {
	Name   string
	P, M   int
	NextID int
	Epoch  uint64
	IDs    []int
	Rows   [][]int64
}

// WriteOwnerMutable serializes the owner's mutable-relation bundle: the
// mirror — string(Name) uvarint(P) uvarint(M) uvarint(NextID)
// uvarint(Epoch) uvarint list(IDs), then one signed list per row — and
// the encrypted shadow state (the owner's copy of exactly what the data
// cloud hosts) in the "hosted-mutable" body.
func WriteOwnerMutable(w io.Writer, mir *OwnerMirror, st *mutate.Relation, pk *paillier.PublicKey) error {
	return write(w, "mutable-owner", func(w *wire.Writer) {
		if mir == nil || len(mir.IDs) != len(mir.Rows) {
			w.Fail("secio: nil owner mirror or ids that disagree with its rows")
			return
		}
		w.String(mir.Name)
		w.Int("P", mir.P)
		w.Int("M", mir.M)
		w.Int("NextID", mir.NextID)
		w.Uvarint(mir.Epoch)
		w.Ints("IDs", mir.IDs)
		for _, row := range mir.Rows {
			w.Varints(row)
		}
		putMutable(w, st, pk)
	})
}

// ReadOwnerMutable deserializes an owner mutable-relation bundle.
func ReadOwnerMutable(r io.Reader) (mir *OwnerMirror, st *mutate.Relation, pk *paillier.PublicKey, err error) {
	err = read(r, "mutable-owner", func(r *wire.Reader) {
		mir = &OwnerMirror{Name: r.String("Name"), P: r.Int("P"), M: r.Int("M"), NextID: r.Int("NextID"), Epoch: r.Uvarint()}
		mir.IDs = r.Ints("IDs")
		mir.Rows = make([][]int64, len(mir.IDs))
		for i := range mir.Rows {
			mir.Rows[i] = r.Varints("row")
		}
		st, pk = getMutable(r)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return mir, st, pk, nil
}
