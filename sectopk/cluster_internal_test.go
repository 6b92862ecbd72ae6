package sectopk

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/mutate"
)

// TestShareKeepsMutableState: a share cut from a relation mutated to
// epoch 2 carries the relation's mutable state for its shards — the
// epoch, the id space and the tombstone tail a delete left — through its
// file and into the member's hosted entry, at its placement.
func TestShareKeepsMutableState(t *testing.T) {
	ctx := context.Background()
	owner, err := NewOwner(WithKeyBits(256), WithMaxScoreBits(20), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	rel := &Relation{Name: "r", Rows: [][]int64{{10, 3}, {8, 8}, {5, 7}, {3, 2}, {1, 1}}}
	er, err := owner.Encrypt(rel)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := owner.NewMutable(rel, er)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 holds ids 0, 2 and 4; deleting 4 leaves it one dead row.
	if _, err := mr.DeleteRows([]int{4}); err != nil {
		t.Fatal(err)
	}
	er2, err := mr.Encrypted()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := er2.Subset(0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/share.er"
	if err := sub.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEncryptedRelation(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, st *mutate.Relation) {
		t.Helper()
		if st.Epoch != 2 || st.IDSpace != 5 || st.DeadRows() != 1 || st.LiveRows() != 2 {
			t.Fatalf("%s: epoch %d, id space %d, dead %d, live %d; want 2, 5, 1, 2",
				what, st.Epoch, st.IDSpace, st.DeadRows(), st.LiveRows())
		}
	}
	check("loaded share", loaded.mst)
	if total, indices := loaded.placement(); total != 2 || !reflect.DeepEqual(indices, []int{0}) {
		t.Fatalf("loaded share placement = %d %v, want 2 [0]", total, indices)
	}

	cc := NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register("r", owner.Keys()); err != nil {
		t.Fatal(err)
	}
	dc := NewDataCloud()
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if err := dc.HostShards(ctx, "r", loaded); err != nil {
		t.Fatal(err)
	}
	h, err := dc.lookup("r")
	if err != nil {
		t.Fatal(err)
	}
	hosted := h.(*hostedRelation)
	hosted.mu.Lock()
	st := hosted.state
	hosted.mu.Unlock()
	check("hosted share", st)
}
