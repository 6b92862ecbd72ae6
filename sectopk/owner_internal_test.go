package sectopk

import "testing"

// TestDefaultOwnerStoresOneDigest: an owner built with no EHL option
// stores every cell as two ciphertexts, one EHL+ digest and one score.
func TestDefaultOwnerStoresOneDigest(t *testing.T) {
	owner, err := NewOwner(WithKeyBits(256), WithMaxScoreBits(20))
	if err != nil {
		t.Fatal(err)
	}
	er, err := owner.Encrypt(&Relation{Name: "r", Rows: [][]int64{{10, 3}, {8, 8}, {5, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, s := range er.sh.Shards {
		for _, list := range s.Lists {
			for i, it := range list {
				if it.EHL == nil || len(it.EHL.Cts) != 1 || it.Score == nil {
					t.Fatalf("cell %d of shard %q is not one digest and one score", i, s.Name)
				}
				cells++
			}
		}
	}
	if cells != 3*2 {
		t.Fatalf("%d cells for 3 rows of 2 attributes", cells)
	}
	if got, want := er.ByteSize(), int64(cells*2*er.pk.ByteLen()); got != want {
		t.Fatalf("the relation takes %d bytes, want %d: two ciphertexts per cell", got, want)
	}
}
