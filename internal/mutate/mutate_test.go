package mutate

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/ehl"
	"repro/internal/paillier"
	"repro/internal/secerr"
)

// The layout invariant needs no cryptography to state: an entry is a
// placeholder core.EncItem whose "ciphertext" is a unique tag, and the
// model is a plain slice of rows that knows each row's tag per list.

// modelRow is one plaintext row and the tags of its m entries.
type modelRow struct {
	id     int
	scores []int64
	tags   []int64
}

// model mirrors one shard: the live rows, how many entries died, and
// which ids are tombstoned and not back.
type model struct {
	m       int
	rows    []modelRow
	dead    int
	deadIDs map[int]bool
	next    int64 // tag counter
}

// compact forgets the tombstones, as Relation.Compact does.
func (md *model) compact() { md.dead, md.deadIDs = 0, nil }

func (md *model) newRow(id int, scores []int64) modelRow {
	r := modelRow{id: id, scores: scores, tags: make([]int64, md.m)}
	for p := range r.tags {
		md.next++
		r.tags[p] = md.next
	}
	return r
}

func item(tag int64) core.EncItem {
	return core.EncItem{EHL: &ehl.List{}, Score: &paillier.Ciphertext{C: big.NewInt(tag)}}
}

// layout is what a fresh encryption of rows stores in list p: score
// descending, ties by id ascending (core.EncryptRelationWithIDs' order).
func layout(rows []modelRow, p int) []modelRow {
	out := append([]modelRow(nil), rows...)
	sort.SliceStable(out, func(x, y int) bool {
		if out[x].scores[p] != out[y].scores[p] {
			return out[x].scores[p] > out[y].scores[p]
		}
		return out[x].id < out[y].id
	})
	return out
}

// position returns where row id sits in list p of a fresh layout of rows.
func position(rows []modelRow, p, id int) int {
	for i, r := range layout(rows, p) {
		if r.id == id {
			return i
		}
	}
	panic(fmt.Sprintf("row %d not in the model", id))
}

// fresh builds the epoch-1 relation a fresh encryption of the model gives.
func (md *model) fresh(t *testing.T) *Relation {
	t.Helper()
	er := &core.EncryptedRelation{Name: "t", N: len(md.rows), M: md.m, MaxScoreBits: 20, Lists: make([][]core.EncItem, md.m)}
	for p := range er.Lists {
		for _, r := range layout(md.rows, p) {
			er.Lists[p] = append(er.Lists[p], item(r.tags[p]))
		}
	}
	rel, err := New([]*core.EncryptedRelation{er}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// delta deletes the rows with the given ids and inserts ins, the way the
// owner's mirror computes it: delete positions in the base layout,
// insert positions in the final one. It advances the model.
func (md *model) delta(epoch uint64, delIDs []int, ins []modelRow) *Delta {
	sd := ShardDelta{}
	gone := map[int]bool{}
	for _, id := range delIDs {
		gone[id] = true
		d := DeleteRow{ID: id, Pos: make([]int, md.m)}
		for p := range d.Pos {
			d.Pos[p] = position(md.rows, p, id)
		}
		sd.Deletes = append(sd.Deletes, d)
	}
	var final []modelRow
	for _, r := range md.rows {
		if !gone[r.id] {
			final = append(final, r)
		}
	}
	final = append(final, ins...)
	for _, r := range ins {
		in := InsertRow{ID: r.id, Pos: make([]int, md.m), Items: make([]core.EncItem, md.m)}
		for p := range in.Pos {
			in.Pos[p] = position(final, p, r.id)
			in.Items[p] = item(r.tags[p])
		}
		sd.Inserts = append(sd.Inserts, in)
	}
	md.rows, md.dead = final, md.dead+len(delIDs)
	if md.deadIDs == nil {
		md.deadIDs = map[int]bool{}
	}
	for _, id := range delIDs {
		md.deadIDs[id] = true
	}
	for _, r := range ins {
		delete(md.deadIDs, r.id)
	}
	return &Delta{BaseEpoch: epoch, Shards: []ShardDelta{sd}}
}

func tagsOf(list []core.EncItem) []int64 {
	out := make([]int64, len(list))
	for i, it := range list {
		out[i] = it.Score.C.Int64()
	}
	return out
}

// frozen is everything a reader of a snapshot can observe.
type frozen struct {
	Epoch   uint64
	IDSpace int
	N, Dead []int
	DeadIDs [][]int
	Lists   [][][]int64
}

func freeze(r *Relation) frozen {
	f := frozen{Epoch: r.Epoch, IDSpace: r.IDSpace}
	for _, s := range r.Shards {
		f.N, f.Dead = append(f.N, s.ER.N), append(f.Dead, s.Dead)
		f.DeadIDs = append(f.DeadIDs, append([]int(nil), s.DeadIDs...))
		var lists [][]int64
		for _, l := range s.ER.Lists {
			lists = append(lists, tagsOf(l))
		}
		f.Lists = append(f.Lists, lists)
	}
	return f
}

// check asserts the layout invariant of rel's only shard against the
// model: the live prefix of every list is the fresh layout of the
// surviving rows, the dead tail has the same length in every list and
// holds no live entry, and LiveView stops where the live prefix does.
func (md *model) check(t *testing.T, rel *Relation) {
	t.Helper()
	s := rel.Shards[0]
	if s.ER.N != len(md.rows) || s.Dead != md.dead {
		t.Fatalf("epoch %d: shard has N=%d Dead=%d, model has %d live %d dead", rel.Epoch, s.ER.N, s.Dead, len(md.rows), md.dead)
	}
	if rel.LiveRows() != len(md.rows) || rel.DeadRows() != md.dead {
		t.Fatalf("epoch %d: LiveRows=%d DeadRows=%d, want %d/%d", rel.Epoch, rel.LiveRows(), rel.DeadRows(), len(md.rows), md.dead)
	}
	gotDead, wantDead := append([]int(nil), s.DeadIDs...), []int{}
	for id := range md.deadIDs {
		wantDead = append(wantDead, id)
	}
	sort.Ints(gotDead)
	sort.Ints(wantDead)
	if !slices.Equal(gotDead, wantDead) {
		t.Fatalf("epoch %d: tombstoned ids %v, model has %v", rel.Epoch, gotDead, wantDead)
	}
	view := s.LiveView()
	for p, list := range s.ER.Lists {
		var want []int64
		live := map[int64]bool{}
		for _, r := range layout(md.rows, p) {
			want = append(want, r.tags[p])
			live[r.tags[p]] = true
		}
		got := tagsOf(list)
		if len(got) != len(want)+md.dead {
			t.Fatalf("epoch %d list %d: %d entries, want %d live + %d dead", rel.Epoch, p, len(got), len(want), md.dead)
		}
		if !slices.Equal(got[:len(want)], want) {
			t.Fatalf("epoch %d list %d: live prefix %v, a fresh layout gives %v", rel.Epoch, p, got[:len(want)], want)
		}
		for _, tag := range got[len(want):] {
			if live[tag] {
				t.Fatalf("epoch %d list %d: live entry %d sits in the dead tail", rel.Epoch, p, tag)
			}
		}
		if v := tagsOf(view.Lists[p]); !slices.Equal(v, want) {
			t.Fatalf("epoch %d list %d: LiveView shows %v, want exactly the live prefix %v", rel.Epoch, p, v, want)
		}
	}
	if view.N != len(md.rows) || view.M != md.m {
		t.Fatalf("epoch %d: LiveView is %dx%d, want %dx%d", rel.Epoch, view.N, view.M, len(md.rows), md.m)
	}
}

// TestApplyRandomSequence drives seeded random delete/insert/update
// deltas and compactions against the plain-slice model, checking the
// layout invariant and copy-on-write after every step.
func TestApplyRandomSequence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		md := &model{m: 3}
		score := func() []int64 {
			s := make([]int64, md.m)
			for p := range s {
				s[p] = rng.Int63n(6) // few distinct values: ties are the common case
			}
			return s
		}
		nextID := 0
		for ; nextID < 8; nextID++ {
			md.rows = append(md.rows, md.newRow(nextID, score()))
		}
		rel := md.fresh(t)
		md.check(t, rel)
		for step := 0; step < 60; step++ {
			before := freeze(rel)
			var next *Relation
			if rng.Intn(8) == 0 {
				next = rel.Compact()
				md.compact()
			} else {
				var delIDs []int
				var ins []modelRow
				for _, i := range rng.Perm(len(md.rows))[:rng.Intn(min(len(md.rows), 3)+1)] {
					id := md.rows[i].id
					delIDs = append(delIDs, id)
					if rng.Intn(2) == 0 { // an update: the id comes back with new scores
						ins = append(ins, md.newRow(id, score()))
					}
				}
				for n := rng.Intn(3); n > 0; n-- {
					ins = append(ins, md.newRow(nextID, score()))
					nextID++
				}
				var err error
				if next, err = rel.Apply(md.delta(rel.Epoch, delIDs, ins)); err != nil {
					t.Fatalf("seed %d step %d: Apply: %v", seed, step, err)
				}
				if next.IDSpace < nextID {
					t.Fatalf("seed %d step %d: IDSpace %d does not cover id %d", seed, step, next.IDSpace, nextID-1)
				}
			}
			if next.Epoch != rel.Epoch+1 {
				t.Fatalf("seed %d step %d: epoch %d -> %d", seed, step, rel.Epoch, next.Epoch)
			}
			md.check(t, next)
			if after := freeze(rel); !reflect.DeepEqual(before, after) {
				t.Fatalf("seed %d step %d: the base snapshot changed under Apply/Compact:\n%+v\n%+v", seed, step, before, after)
			}
			rel = next
		}
	}
}

// TestApplyRefusals is the table of deltas that must fail typed, never
// panic, and leave the base snapshot as it was; it ends with Compact
// dropping exactly the tail and staling the old epoch.
func TestApplyRefusals(t *testing.T) {
	md := &model{m: 2}
	for id, s := range [][]int64{{5, 1}, {4, 2}, {3, 3}, {2, 4}} {
		md.rows = append(md.rows, md.newRow(id, s))
	}
	rel := md.fresh(t)
	rel, err := rel.Apply(md.delta(rel.Epoch, []int{1}, nil)) // epoch 2, one dead entry per list
	if err != nil {
		t.Fatal(err)
	}
	md.check(t, rel)

	del := func(pos ...int) ShardDelta { return ShardDelta{Deletes: []DeleteRow{{ID: 0, Pos: pos}}} }
	ins := func(items []core.EncItem, pos ...int) ShardDelta {
		return ShardDelta{Inserts: []InsertRow{{ID: 9, Pos: pos, Items: items}}}
	}
	two := []core.EncItem{item(100), item(101)}
	both := func(a, b ShardDelta) ShardDelta {
		return ShardDelta{Deletes: append(a.Deletes, b.Deletes...), Inserts: append(a.Inserts, b.Inserts...)}
	}
	cases := []struct {
		name string
		d    *Delta
		want secerr.Code
	}{
		{"nil delta", nil, secerr.CodeBadRequest},
		{"stale epoch", &Delta{BaseEpoch: rel.Epoch - 1}, secerr.CodeRelationStale},
		{"future epoch", &Delta{BaseEpoch: rel.Epoch + 1}, secerr.CodeRelationStale},
		{"shard out of range", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{{Shard: 1}}}, secerr.CodeBadRequest},
		{"negative shard", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{{Shard: -1}}}, secerr.CodeBadRequest},
		{"duplicate shard", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{{}, {}}}, secerr.CodeBadRequest},
		{"delete position negative", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{del(-1, 0)}}, secerr.CodeBadRequest},
		{"delete position in the dead tail", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{del(0, 3)}}, secerr.CodeBadRequest},
		{"delete position duplicated", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{both(del(0, 0), del(0, 1))}}, secerr.CodeBadRequest},
		{"delete with too few positions", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{del(0)}}, secerr.CodeBadRequest},
		{"more deletes than live rows", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{{Deletes: make([]DeleteRow, 4)}}}, secerr.CodeBadRequest},
		{"insert position negative", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{ins(two, -1, 0)}}, secerr.CodeBadRequest},
		{"insert position past the final view", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{ins(two, 0, 4)}}, secerr.CodeBadRequest},
		{"insert position duplicated", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{both(ins(two, 0, 0), ins(two, 0, 1))}}, secerr.CodeBadRequest},
		{"insert with too few positions", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{ins(two, 0)}}, secerr.CodeBadRequest},
		{"insert with too few items", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{ins(two[:1], 0, 0)}}, secerr.CodeBadRequest},
		{"insert with an incomplete item", &Delta{BaseEpoch: rel.Epoch, Shards: []ShardDelta{ins([]core.EncItem{item(100), {}}, 0, 0)}}, secerr.CodeBadRequest},
	}
	before := freeze(rel)
	for _, tc := range cases {
		next, err := rel.Apply(tc.d)
		if err == nil || next != nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if got := secerr.CodeOf(err); got != tc.want {
			t.Errorf("%s: code %q, want %q (%v)", tc.name, got, tc.want, err)
		}
	}
	if after := freeze(rel); !reflect.DeepEqual(before, after) {
		t.Fatalf("a refused delta changed the snapshot:\n%+v\n%+v", before, after)
	}

	compacted := rel.Compact()
	md.compact()
	md.check(t, compacted)
	if compacted.Epoch != rel.Epoch+1 || compacted.IDSpace != rel.IDSpace {
		t.Fatalf("Compact: epoch %d -> %d, id space %d -> %d", rel.Epoch, compacted.Epoch, rel.IDSpace, compacted.IDSpace)
	}
	if after := freeze(rel); !reflect.DeepEqual(before, after) {
		t.Fatalf("Compact changed the snapshot it read:\n%+v\n%+v", before, after)
	}
	if _, err := compacted.Apply(&Delta{BaseEpoch: rel.Epoch}); secerr.CodeOf(err) != secerr.CodeRelationStale {
		t.Fatalf("a delta cut before the compaction: %v, want %s", err, secerr.CodeRelationStale)
	}
}
