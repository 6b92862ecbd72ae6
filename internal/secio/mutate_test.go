package secio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/join"
	"repro/internal/knn"
	"repro/internal/mutate"
	"repro/internal/paillier"
	"repro/internal/secerr"
	"repro/internal/wire"
)

// TestWrongVersionRefusedEveryKind: every artifact is written and read
// by the same build, so every reader refuses a header at any version but
// the current one — older and newer alike — on the header alone, typed
// bad_request, naming both the found version and the supported one: what
// a stranded operator needs to see. (A gob-era stream, versions 1 and 2,
// cannot carry this header at all; the facade's decoder table feeds each
// reader a real one.)
func TestWrongVersionRefusedEveryKind(t *testing.T) {
	readers := map[string]func(r io.Reader) error{
		"token": func(r io.Reader) error { _, err := ReadToken(r); return err },
		"hosted-join-relation": func(r io.Reader) error {
			_, _, _, _, err := ReadHostedJoinRelation(r)
			return err
		},
		"join-token": func(r io.Reader) error { _, err := ReadJoinToken(r); return err },
		"result": func(r io.Reader) error {
			_, _, _, err := ReadQueryResult(r)
			return err
		},
		"knn-token":   func(r io.Reader) error { _, _, err := ReadKNNToken(r); return err },
		"join-result": func(r io.Reader) error { _, err := ReadJoinResult(r); return err },
		"knn-result":  func(r io.Reader) error { _, err := ReadKNNResult(r); return err },
		"hosted-knn-relation": func(r io.Reader) error {
			_, _, _, err := ReadHostedKNNRelation(r)
			return err
		},
		"join-owner": func(r io.Reader) error { _, err := ReadJoinOwnerBundle(r); return err },
		"keys":       func(r io.Reader) error { _, err := ReadKeyMaterial(r); return err },
		"owner":      func(r io.Reader) error { _, err := ReadOwnerBundle(r); return err },
		"delta":      func(r io.Reader) error { _, _, err := ReadDelta(r); return err },
		"hosted-mutable": func(r io.Reader) error {
			_, _, _, _, err := ReadMutableHosted(r)
			return err
		},
		"mutable-owner": func(r io.Reader) error {
			_, _, _, err := ReadOwnerMutable(r)
			return err
		},
		"candidates": func(r io.Reader) error { _, err := ReadCandidates(r); return err },
	}
	for kind, read := range readers {
		// Version 3 is the last one before EHL parameters became a bare
		// digest count, version 4 the last whose keys need not be from
		// safe primes, version 5 the last whose cluster member shares had
		// a kind of their own beside a "hosted-mutable" without a
		// placement: a build that wrote any of them must be told so by
		// number.
		for _, v := range []int{1, 2, 3, 4, 5, version, version + 1, 99} {
			t.Run(fmt.Sprintf("%s/v%d", kind, v), func(t *testing.T) {
				// A header and no body: the refusal must come from the
				// header, except at the current version, which passes the
				// gate and is refused for the missing body.
				var w wire.Writer
				w.String(magic)
				w.Int("version", v)
				w.String(kind)
				b, _ := w.Finish()
				err := read(bytes.NewReader(b))
				if !errors.Is(err, secerr.ErrBadRequest) {
					t.Fatalf("err = %v (code %q), want bad_request", err, secerr.CodeOf(err))
				}
				msg := err.Error()
				if v == version {
					if strings.Contains(msg, "version") {
						t.Fatalf("current version refused on its header: %q", msg)
					}
					return
				}
				if !strings.Contains(msg, fmt.Sprintf("version %d ", v)) {
					t.Fatalf("error %q does not name the found version", msg)
				}
				if !strings.Contains(msg, fmt.Sprintf("version %d only", version)) {
					t.Fatalf("error %q does not name the supported version", msg)
				}
			})
		}
	}
}

// TestEHLDigestCountRefusedEveryKind: every stream that carries EHL
// parameters refuses a digest count of zero or above maxEHLWidth, typed
// bad_request and naming the count, before it reads a single cell. Each
// kind is written at s = 1 and s = 2 with everything before the count
// alike, so the first byte the two streams differ in is the count; the
// s = 1 stream is then read back with that byte replaced.
func TestEHLDigestCountRefusedEveryKind(t *testing.T) {
	r := getRig(t)
	keys, pk := r.scheme.KeyMaterial(), r.scheme.PublicKey()
	ct := func(v int64) *paillier.Ciphertext { return &paillier.Ciphertext{C: big.NewInt(v)} }
	list := func(s int) *ehl.List {
		l := &ehl.List{}
		for i := 0; i < s; i++ {
			l.Cts = append(l.Cts, ct(int64(11+i)))
		}
		return l
	}
	relation := func(s int) *core.EncryptedRelation {
		return &core.EncryptedRelation{Name: "r", M: 1, N: 1, EHLParams: ehl.Params{S: s}, MaxScoreBits: 20,
			Lists: [][]core.EncItem{{{EHL: list(s), Score: ct(5)}}}}
	}
	mutable := func(t *testing.T, s int) *mutate.Relation {
		st, err := mutate.New([]*core.EncryptedRelation{relation(s)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	kinds := map[string]struct {
		write func(t *testing.T, w io.Writer, s int) error
		read  func(r io.Reader) error
	}{
		"owner": {
			func(t *testing.T, w io.Writer, s int) error {
				scheme, err := core.NewSchemeFromKeys(core.Params{KeyBits: 256, EHL: ehl.Params{S: s}, MaxScoreBits: 20}, keys)
				if err != nil {
					t.Fatal(err)
				}
				return WriteOwnerBundle(w, scheme)
			},
			func(r io.Reader) error { _, err := ReadOwnerBundle(r); return err },
		},
		"join-owner": {
			func(t *testing.T, w io.Writer, s int) error {
				scheme, err := join.NewSchemeFromKeys(join.Params{KeyBits: 256, EHL: ehl.Params{S: s}, MaxScoreBits: 20}, keys)
				if err != nil {
					t.Fatal(err)
				}
				return WriteJoinOwnerBundle(w, scheme)
			},
			func(r io.Reader) error { _, err := ReadJoinOwnerBundle(r); return err },
		},
		"hosted-join-relation": {
			func(t *testing.T, w io.Writer, s int) error {
				er := &join.EncRelation{Name: "j", N: 1, M: 1, Tuples: [][]join.EncAttr{{{EHL: list(s), Value: ct(5)}}}}
				return WriteHostedJoinRelation(w, er, ehl.Params{S: s}, 20, pk)
			},
			func(r io.Reader) error { _, _, _, _, err := ReadHostedJoinRelation(r); return err },
		},
		"hosted-knn-relation": {
			func(t *testing.T, w io.Writer, s int) error {
				db := &knn.EncDatabase{Name: "k", N: 1, M: 1, Records: []knn.EncRecord{{ID: list(s), Values: []*paillier.Ciphertext{ct(5)}}}}
				return WriteHostedKNNRelation(w, db, 20, pk)
			},
			func(r io.Reader) error { _, _, _, err := ReadHostedKNNRelation(r); return err },
		},
		"hosted-mutable": {
			func(t *testing.T, w io.Writer, s int) error {
				return WriteMutableHosted(w, mutable(t, s), 1, []int{0}, pk)
			},
			func(r io.Reader) error { _, _, _, _, err := ReadMutableHosted(r); return err },
		},
		"mutable-owner": {
			func(t *testing.T, w io.Writer, s int) error {
				mir := &OwnerMirror{Name: "r", P: 1, M: 1, NextID: 1, Epoch: 1, IDs: []int{0}, Rows: [][]int64{{5}}}
				return WriteOwnerMutable(w, mir, mutable(t, s), pk)
			},
			func(r io.Reader) error { _, _, _, err := ReadOwnerMutable(r); return err },
		},
		"delta": {
			func(t *testing.T, w io.Writer, s int) error {
				d := &mutate.Delta{BaseEpoch: 1, ID: "d", Shards: []mutate.ShardDelta{{
					Inserts: []mutate.InsertRow{{ID: 1, Pos: []int{0}, Items: []core.EncItem{{EHL: list(s), Score: ct(5)}}}},
				}}}
				return WriteDelta(w, d, ehl.Params{S: s})
			},
			func(r io.Reader) error { _, _, err := ReadDelta(r); return err },
		},
	}
	for kind, k := range kinds {
		t.Run(kind, func(t *testing.T) {
			var one, two bytes.Buffer
			if err := k.write(t, &one, 1); err != nil {
				t.Fatal(err)
			}
			if err := k.write(t, &two, 2); err != nil {
				t.Fatal(err)
			}
			if err := k.read(bytes.NewReader(one.Bytes())); err != nil {
				t.Fatalf("the s = 1 stream does not read back: %v", err)
			}
			at := 0
			for at < min(one.Len(), two.Len()) && one.Bytes()[at] == two.Bytes()[at] {
				at++
			}
			if at == one.Len() || one.Bytes()[at] != 1 || two.Bytes()[at] != 2 {
				t.Fatalf("the streams at s = 1 and s = 2 first differ at byte %d, which is not the digest count", at)
			}
			for _, s := range []uint64{0, maxEHLWidth + 1} {
				bad := binary.AppendUvarint(append([]byte(nil), one.Bytes()[:at]...), s)
				bad = append(bad, one.Bytes()[at+1:]...)
				err := k.read(bytes.NewReader(bad))
				if !errors.Is(err, secerr.ErrBadRequest) {
					t.Fatalf("s = %d: err = %v (code %q), want bad_request", s, err, secerr.CodeOf(err))
				}
				if want := fmt.Sprintf("digest count %d out of range", s); !strings.Contains(err.Error(), want) {
					t.Fatalf("s = %d: error %q does not say %q", s, err, want)
				}
			}
		})
	}
}

// TestDeltaRoundTrip serializes a mutation delta (the Client.Apply wire
// payload) and checks every field — idempotency key, base epoch, shard
// targeting, delete positions, insert ciphertexts — survives, along with
// the EHL parameters the decoder validated against.
func TestDeltaRoundTrip(t *testing.T) {
	r := getRig(t)
	params := ehl.Params{Kind: ehl.KindPlus, S: 3}
	item, err := r.scheme.EncryptEntry(7, 42)
	if err != nil {
		t.Fatal(err)
	}
	d := &mutate.Delta{
		BaseEpoch: 3,
		ID:        "delta-abc123",
		Shards: []mutate.ShardDelta{
			{
				Shard:   1,
				Deletes: []mutate.DeleteRow{{ID: 4, Pos: []int{0, 2, 1}}},
				Inserts: []mutate.InsertRow{{ID: 7, Pos: []int{2, 0, 1}, Items: []core.EncItem{item, item, item}}},
			},
			{Shard: 0, Deletes: []mutate.DeleteRow{{ID: 2, Pos: []int{1, 1, 0}}}},
		},
	}
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d, params); err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	got, gotParams, err := ReadDelta(&buf)
	if err != nil {
		t.Fatalf("ReadDelta: %v", err)
	}
	if gotParams != params {
		t.Fatalf("params mismatch: %+v vs %+v", gotParams, params)
	}
	if got.BaseEpoch != d.BaseEpoch || got.ID != d.ID || len(got.Shards) != len(d.Shards) {
		t.Fatalf("delta metadata mismatch: %+v", got)
	}
	sd := got.Shards[0]
	if sd.Shard != 1 || len(sd.Deletes) != 1 || len(sd.Inserts) != 1 {
		t.Fatalf("shard 0 shape wrong: %+v", sd)
	}
	if sd.Deletes[0].ID != 4 || len(sd.Deletes[0].Pos) != 3 || sd.Deletes[0].Pos[1] != 2 {
		t.Fatalf("delete row mismatch: %+v", sd.Deletes[0])
	}
	ins := sd.Inserts[0]
	if ins.ID != 7 || len(ins.Items) != 3 || len(ins.Items[0].EHL.Cts) != params.Width() {
		t.Fatalf("insert row mismatch: %+v", ins)
	}
	if ins.Items[0].Score.C.Cmp(item.Score.C) != 0 {
		t.Fatal("insert score ciphertext mutated in transit")
	}
	if got.Shards[1].Shard != 0 || len(got.Shards[1].Inserts) != 0 {
		t.Fatalf("shard 1 mismatch: %+v", got.Shards[1])
	}
	// Error paths.
	if err := WriteDelta(io.Discard, nil, params); err == nil {
		t.Fatal("expected error for nil delta")
	}
	var wrongKind bytes.Buffer
	if err := WriteToken(&wrongKind, &core.Token{K: 1, Lists: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDelta(&wrongKind); !errors.Is(err, secerr.ErrBadRequest) {
		t.Fatalf("ReadDelta(token stream) = %v, want bad_request", err)
	}
}

// TestMutableHostedRoundTrip serializes an epoch-stamped hosted relation
// with tombstone debt and checks the mutable bookkeeping — epoch, id
// space, live prefixes, dead tails, tombstoned ids — all survive.
func TestMutableHostedRoundTrip(t *testing.T) {
	r := getRig(t)
	er, err := r.scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	st, err := mutate.New([]*core.EncryptedRelation{er}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-roll post-mutation state: epoch advanced, last row of each
	// list tombstoned (lists stay full depth; N shrinks to the live
	// prefix), id space grown past the row count.
	st.Epoch = 5
	st.IDSpace = 9
	sh := st.Shards[0]
	sh.ER.N--
	sh.Dead = 1
	sh.DeadIDs = []int{4}
	var buf bytes.Buffer
	if err := WriteMutableHosted(&buf, st, 1, []int{0}, r.scheme.PublicKey()); err != nil {
		t.Fatalf("WriteMutableHosted: %v", err)
	}
	got, total, indices, pk, err := ReadMutableHosted(&buf)
	if err != nil {
		t.Fatalf("ReadMutableHosted: %v", err)
	}
	if pk.N.Cmp(r.scheme.PublicKey().N) != 0 {
		t.Fatal("public key mismatch")
	}
	if total != 1 || len(indices) != 1 || indices[0] != 0 {
		t.Fatalf("placement = %d %v, want the whole relation 1 [0]", total, indices)
	}
	if got.Epoch != 5 || got.IDSpace != 9 || len(got.Shards) != 1 {
		t.Fatalf("mutable metadata mismatch: epoch=%d idspace=%d shards=%d", got.Epoch, got.IDSpace, len(got.Shards))
	}
	gs := got.Shards[0]
	if gs.ER.N != sh.ER.N || gs.Dead != 1 || len(gs.DeadIDs) != 1 || gs.DeadIDs[0] != 4 {
		t.Fatalf("tombstone bookkeeping mismatch: %+v", gs)
	}
	for p, list := range gs.ER.Lists {
		if len(list) != gs.ER.N+gs.Dead {
			t.Fatalf("list %d stored %d entries, want live+dead = %d", p, len(list), gs.ER.N+gs.Dead)
		}
	}
	// The live view must be queryable shape: N live entries per list.
	live := got.LiveShards()[0]
	for p, list := range live.Lists {
		if len(list) != live.N {
			t.Fatalf("live view list %d has %d entries for N=%d", p, len(list), live.N)
		}
	}
	if err := WriteMutableHosted(io.Discard, nil, 1, []int{0}, r.scheme.PublicKey()); err == nil {
		t.Fatal("expected error for nil mutable relation")
	}
}

// TestOwnerMutableRoundTrip serializes the owner's mirror bundle
// (plaintext rows + encrypted shadow) and checks both halves survive.
func TestOwnerMutableRoundTrip(t *testing.T) {
	r := getRig(t)
	er, err := r.scheme.EncryptRelation(testRelation())
	if err != nil {
		t.Fatal(err)
	}
	st, err := mutate.New([]*core.EncryptedRelation{er}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Epoch = 2
	mir := &OwnerMirror{
		Name: "fig3", P: 1, M: 3, NextID: 6, Epoch: 2,
		IDs:  []int{0, 1, 2, 3, 5},
		Rows: [][]int64{{10, 3, 2}, {8, 8, 0}, {5, 7, 6}, {3, 2, 8}, {9, 9, 9}},
	}
	var buf bytes.Buffer
	if err := WriteOwnerMutable(&buf, mir, st, r.scheme.PublicKey()); err != nil {
		t.Fatalf("WriteOwnerMutable: %v", err)
	}
	gotMir, gotSt, pk, err := ReadOwnerMutable(&buf)
	if err != nil {
		t.Fatalf("ReadOwnerMutable: %v", err)
	}
	if pk.N.Cmp(r.scheme.PublicKey().N) != 0 {
		t.Fatal("public key mismatch")
	}
	if gotMir.Name != mir.Name || gotMir.P != 1 || gotMir.M != 3 || gotMir.NextID != 6 || gotMir.Epoch != 2 {
		t.Fatalf("mirror metadata mismatch: %+v", gotMir)
	}
	if len(gotMir.IDs) != 5 || gotMir.IDs[4] != 5 || gotMir.Rows[4][0] != 9 {
		t.Fatalf("mirror rows mismatch: %+v", gotMir)
	}
	if gotSt.Epoch != 2 || gotSt.LiveRows() != er.N {
		t.Fatalf("shadow state mismatch: epoch=%d live=%d", gotSt.Epoch, gotSt.LiveRows())
	}
	// Error paths: nil mirror, mismatched ids/rows, wrong kind.
	if err := WriteOwnerMutable(io.Discard, nil, st, r.scheme.PublicKey()); err == nil {
		t.Fatal("expected error for nil mirror")
	}
	bad := &OwnerMirror{Name: "x", IDs: []int{1, 2}, Rows: [][]int64{{1}}}
	if err := WriteOwnerMutable(io.Discard, bad, st, r.scheme.PublicKey()); err == nil {
		t.Fatal("expected error for mismatched ids/rows")
	}
	buf.Reset()
	if err := WriteMutableHosted(&buf, st, 1, []int{0}, r.scheme.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadOwnerMutable(&buf); !errors.Is(err, secerr.ErrBadRequest) {
		t.Fatalf("ReadOwnerMutable(hosted-mutable stream) = %v, want bad_request", err)
	}
}
