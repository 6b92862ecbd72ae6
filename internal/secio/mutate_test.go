package secio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/mutate"
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
			_, _, err := ReadMutableHosted(r)
			return err
		},
		"mutable-owner": func(r io.Reader) error {
			_, _, _, err := ReadOwnerMutable(r)
			return err
		},
		"hosted-subset": func(r io.Reader) error {
			_, _, _, _, _, err := ReadHostedSubset(r)
			return err
		},
		"candidates": func(r io.Reader) error { _, err := ReadCandidates(r); return err },
	}
	for kind, read := range readers {
		for _, v := range []int{1, 2, version, version + 1, 99} {
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
	if err := WriteMutableHosted(&buf, st, r.scheme.PublicKey()); err != nil {
		t.Fatalf("WriteMutableHosted: %v", err)
	}
	got, pk, err := ReadMutableHosted(&buf)
	if err != nil {
		t.Fatalf("ReadMutableHosted: %v", err)
	}
	if pk.N.Cmp(r.scheme.PublicKey().N) != 0 {
		t.Fatal("public key mismatch")
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
	if err := WriteMutableHosted(io.Discard, nil, r.scheme.PublicKey()); err == nil {
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
	if err := WriteMutableHosted(&buf, st, r.scheme.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadOwnerMutable(&buf); !errors.Is(err, secerr.ErrBadRequest) {
		t.Fatalf("ReadOwnerMutable(hosted-mutable stream) = %v, want bad_request", err)
	}
}
