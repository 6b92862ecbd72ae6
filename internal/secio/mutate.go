package secio

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/mutate"
	"repro/internal/paillier"
)

// This file serializes the mutation plane's artifacts, all format
// version 2:
//
//   - "delta": an owner-produced mutation bundle (the Client.Apply wire
//     payload and the `sectopk-node apply` hand-off artifact);
//   - "hosted-mutable": an epoch-stamped hosted relation — the sharded
//     store including tombstone tails, so a mutated hosting round-trips
//     through files without losing its version or compaction debt;
//   - "mutable-owner": the owner's mirror (plaintext rows + id
//     allocator + epoch) bundled with its encrypted shadow state. This
//     stream holds plaintext and must never leave the owner.

// wireDeleteRow, wireInsertRow, wireShardDelta and wireDelta flatten
// mutate.Delta. The EHL parameters ride along so the decoder can
// validate digest widths without out-of-band schema knowledge.
type wireDeleteRow struct {
	ID  int
	Pos []int
}

type wireInsertRow struct {
	ID    int
	Pos   []int
	Items []wireEncItem
}

type wireShardDelta struct {
	Shard   int
	Deletes []wireDeleteRow
	Inserts []wireInsertRow
}

type wireDelta struct {
	BaseEpoch  uint64
	ID         string
	EHLKind    int
	EHLS, EHLH int
	Shards     []wireShardDelta
}

// encodeDelta flattens a delta to its wire form.
func encodeDelta(d *mutate.Delta, params ehl.Params) (*wireDelta, error) {
	if d == nil {
		return nil, errors.New("secio: nil delta")
	}
	wd := &wireDelta{
		BaseEpoch: d.BaseEpoch, ID: d.ID,
		EHLKind: int(params.Kind), EHLS: params.S, EHLH: params.H,
		Shards: make([]wireShardDelta, len(d.Shards)),
	}
	for i, sd := range d.Shards {
		ws := wireShardDelta{Shard: sd.Shard}
		for _, del := range sd.Deletes {
			ws.Deletes = append(ws.Deletes, wireDeleteRow{ID: del.ID, Pos: del.Pos})
		}
		for _, ins := range sd.Inserts {
			wi := wireInsertRow{ID: ins.ID, Pos: ins.Pos}
			for j, it := range ins.Items {
				if it.EHL == nil || it.Score == nil {
					return nil, fmt.Errorf("secio: delta shard %d: incomplete insert item %d", sd.Shard, j)
				}
				w := wireEncItem{Score: it.Score.C}
				for _, ct := range it.EHL.Cts {
					w.EHL = append(w.EHL, ct.C)
				}
				wi.Items = append(wi.Items, w)
			}
			ws.Inserts = append(ws.Inserts, wi)
		}
		wd.Shards[i] = ws
	}
	return wd, nil
}

// decodeDelta rebuilds a delta from its wire form.
func decodeDelta(wd *wireDelta) (*mutate.Delta, error) {
	params := ehl.Params{Kind: ehl.Kind(wd.EHLKind), S: wd.EHLS, H: wd.EHLH}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("secio: stored delta EHL params invalid: %w", err)
	}
	d := &mutate.Delta{BaseEpoch: wd.BaseEpoch, ID: wd.ID, Shards: make([]mutate.ShardDelta, len(wd.Shards))}
	for i, ws := range wd.Shards {
		sd := mutate.ShardDelta{Shard: ws.Shard}
		for _, del := range ws.Deletes {
			sd.Deletes = append(sd.Deletes, mutate.DeleteRow{ID: del.ID, Pos: del.Pos})
		}
		for _, wi := range ws.Inserts {
			ins := mutate.InsertRow{ID: wi.ID, Pos: wi.Pos}
			for j, w := range wi.Items {
				if w.Score == nil || len(w.EHL) != params.Width() {
					return nil, fmt.Errorf("secio: stored delta shard %d: malformed insert item %d", ws.Shard, j)
				}
				l := &ehl.List{Kind: params.Kind}
				for _, v := range w.EHL {
					l.Cts = append(l.Cts, &paillier.Ciphertext{C: v})
				}
				ins.Items = append(ins.Items, core.EncItem{EHL: l, Score: &paillier.Ciphertext{C: w.Score}})
			}
			sd.Inserts = append(sd.Inserts, ins)
		}
		d.Shards[i] = sd
	}
	return d, nil
}

// WriteDelta serializes a mutation delta; params are the relation's EHL
// parameters (needed to validate digest widths on the reading side).
func WriteDelta(w io.Writer, d *mutate.Delta, params ehl.Params) error {
	wd, err := encodeDelta(d, params)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: "delta"}); err != nil {
		return fmt.Errorf("secio: writing header: %w", err)
	}
	if err := enc.Encode(wd); err != nil {
		return fmt.Errorf("secio: writing delta: %w", err)
	}
	return bw.Flush()
}

// ReadDelta deserializes a mutation delta, returning the EHL parameters
// it was validated against alongside (so a loaded delta can be
// re-serialized without out-of-band schema knowledge).
func ReadDelta(r io.Reader) (*mutate.Delta, ehl.Params, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, ehl.Params{}, fmt.Errorf("secio: reading header: %w", err)
	}
	if err := h.check("delta"); err != nil {
		return nil, ehl.Params{}, err
	}
	var wd wireDelta
	if err := dec.Decode(&wd); err != nil {
		return nil, ehl.Params{}, fmt.Errorf("secio: reading delta: %w", err)
	}
	d, err := decodeDelta(&wd)
	if err != nil {
		return nil, ehl.Params{}, err
	}
	return d, ehl.Params{Kind: ehl.Kind(wd.EHLKind), S: wd.EHLS, H: wd.EHLH}, nil
}

// wireMutableMeta stamps a hosted-mutable stream with its version state.
type wireMutableMeta struct {
	Epoch   uint64
	IDSpace int
	Shards  int
}

// wireMutableShard carries one shard's tombstone bookkeeping; the shard
// body follows as a wireRelation whose N is the TOTAL (live + dead)
// entry count, Live of which lead each list.
type wireMutableShard struct {
	Live    int
	DeadIDs []int
}

// writeMutableBody emits the shared payload of the "hosted-mutable" and
// "mutable-owner" kinds: public key, epoch metadata, then per shard the
// tombstone bookkeeping and the full (live + dead) lists.
func writeMutableBody(enc *gob.Encoder, st *mutate.Relation, pk *paillier.PublicKey) error {
	if st == nil || len(st.Shards) == 0 {
		return errors.New("secio: empty mutable relation")
	}
	if pk == nil || pk.N == nil {
		return errors.New("secio: nil public key")
	}
	if err := enc.Encode(wirePub{N: pk.N}); err != nil {
		return fmt.Errorf("secio: writing public key: %w", err)
	}
	if err := enc.Encode(wireMutableMeta{Epoch: st.Epoch, IDSpace: st.IDSpace, Shards: len(st.Shards)}); err != nil {
		return fmt.Errorf("secio: writing mutable metadata: %w", err)
	}
	for i, s := range st.Shards {
		if err := enc.Encode(wireMutableShard{Live: s.ER.N, DeadIDs: s.DeadIDs}); err != nil {
			return fmt.Errorf("secio: writing shard %d metadata: %w", i, err)
		}
		wr, err := encodeRelation(s.ER)
		if err != nil {
			return err
		}
		// The stored lists run Live+Dead deep; stamp the wire N with the
		// total so the relation codec's shape check holds.
		wr.N = s.ER.N + s.Dead
		if err := enc.Encode(wr); err != nil {
			return fmt.Errorf("secio: writing shard %d: %w", i, err)
		}
	}
	return nil
}

// maxShardCount bounds a decoded shard count so a corrupt stream cannot
// force an absurd allocation.
const maxShardCount = 1 << 16

// readMutableBody decodes the shared payload written by
// writeMutableBody.
func readMutableBody(dec *gob.Decoder) (*mutate.Relation, *paillier.PublicKey, error) {
	var wp wirePub
	if err := dec.Decode(&wp); err != nil {
		return nil, nil, fmt.Errorf("secio: reading public key: %w", err)
	}
	pk, err := paillier.NewPublicKeyFromN(wp.N)
	if err != nil {
		return nil, nil, err
	}
	var meta wireMutableMeta
	if err := dec.Decode(&meta); err != nil {
		return nil, nil, fmt.Errorf("secio: reading mutable metadata: %w", err)
	}
	if meta.Shards < 1 || meta.Shards > maxShardCount {
		return nil, nil, fmt.Errorf("secio: shard count %d out of range", meta.Shards)
	}
	if meta.Epoch == 0 {
		return nil, nil, errors.New("secio: mutable bundle has zero epoch")
	}
	st := &mutate.Relation{Epoch: meta.Epoch, IDSpace: meta.IDSpace, Shards: make([]*mutate.Shard, meta.Shards)}
	for i := range st.Shards {
		var ws wireMutableShard
		if err := dec.Decode(&ws); err != nil {
			return nil, nil, fmt.Errorf("secio: reading shard %d metadata: %w", i, err)
		}
		var wr wireRelation
		if err := dec.Decode(&wr); err != nil {
			return nil, nil, fmt.Errorf("secio: reading shard %d: %w", i, err)
		}
		er, err := decodeRelation(&wr)
		if err != nil {
			return nil, nil, err
		}
		if ws.Live < 0 || ws.Live > er.N {
			return nil, nil, fmt.Errorf("secio: shard %d live count %d out of range [0,%d]", i, ws.Live, er.N)
		}
		dead := er.N - ws.Live
		er.N = ws.Live
		st.Shards[i] = &mutate.Shard{ER: er, Dead: dead, DeadIDs: ws.DeadIDs}
	}
	return st, pk, nil
}

// WriteMutableHosted serializes an epoch-stamped hosted relation: the
// full mutable state (live prefixes, tombstone tails, epoch, id space)
// plus the public key — everything the data cloud needs to host it and
// keep applying deltas against it.
func WriteMutableHosted(w io.Writer, st *mutate.Relation, pk *paillier.PublicKey) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: "hosted-mutable"}); err != nil {
		return fmt.Errorf("secio: writing header: %w", err)
	}
	if err := writeMutableBody(enc, st, pk); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadMutableHosted deserializes an epoch-stamped hosted relation.
func ReadMutableHosted(r io.Reader) (*mutate.Relation, *paillier.PublicKey, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, nil, fmt.Errorf("secio: reading header: %w", err)
	}
	if err := h.check("hosted-mutable"); err != nil {
		return nil, nil, err
	}
	return readMutableBody(dec)
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
// plaintext mirror followed by the encrypted shadow state (the owner's
// copy of exactly what the data cloud hosts). Plaintext rows are inside
// — this stream must never leave the owner.
func WriteOwnerMutable(w io.Writer, mir *OwnerMirror, st *mutate.Relation, pk *paillier.PublicKey) error {
	if mir == nil {
		return errors.New("secio: nil owner mirror")
	}
	if len(mir.IDs) != len(mir.Rows) {
		return fmt.Errorf("secio: mirror has %d ids for %d rows", len(mir.IDs), len(mir.Rows))
	}
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(header{Magic: magic, Version: version, Kind: "mutable-owner"}); err != nil {
		return fmt.Errorf("secio: writing header: %w", err)
	}
	if err := enc.Encode(mir); err != nil {
		return fmt.Errorf("secio: writing owner mirror: %w", err)
	}
	if err := writeMutableBody(enc, st, pk); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadOwnerMutable deserializes an owner mutable-relation bundle.
func ReadOwnerMutable(r io.Reader) (*OwnerMirror, *mutate.Relation, *paillier.PublicKey, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, nil, nil, fmt.Errorf("secio: reading header: %w", err)
	}
	if err := h.check("mutable-owner"); err != nil {
		return nil, nil, nil, err
	}
	var mir OwnerMirror
	if err := dec.Decode(&mir); err != nil {
		return nil, nil, nil, fmt.Errorf("secio: reading owner mirror: %w", err)
	}
	if len(mir.IDs) != len(mir.Rows) {
		return nil, nil, nil, fmt.Errorf("secio: stored mirror has %d ids for %d rows", len(mir.IDs), len(mir.Rows))
	}
	st, pk, err := readMutableBody(dec)
	if err != nil {
		return nil, nil, nil, err
	}
	return &mir, st, pk, nil
}

// SaveOwnerMutable writes the owner bundle to a 0600 file (it holds
// plaintext rows).
func SaveOwnerMutable(path string, mir *OwnerMirror, st *mutate.Relation, pk *paillier.PublicKey) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if err := WriteOwnerMutable(f, mir, st, pk); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadOwnerMutable reads an owner bundle from a file.
func LoadOwnerMutable(path string) (*OwnerMirror, *mutate.Relation, *paillier.PublicKey, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	return ReadOwnerMutable(f)
}
