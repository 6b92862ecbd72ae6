package sectopk_test

import (
	"context"
	"fmt"
	"log"

	"repro/sectopk"
)

// Example runs the full SecTopK pipeline through the public API: the
// owner encrypts a relation, the two clouds stand up in-process, the
// data cloud executes a top-2 query, and the owner reveals the answer.
func Example() {
	ctx := context.Background()

	// The data owner generates keys and encrypts the relation.
	owner, err := sectopk.NewOwner(
		sectopk.WithKeyBits(256), // demo-sized; production wants 2048+
		sectopk.WithEHLDigests(3),
		sectopk.WithMaxScoreBits(20),
	)
	if err != nil {
		log.Fatal(err)
	}
	er, err := owner.Encrypt(&sectopk.Relation{
		Name: "demo",
		Rows: [][]int64{
			{10, 3, 2},
			{8, 8, 0},
			{5, 7, 6},
			{3, 2, 8},
			{1, 1, 1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The crypto cloud S2 holds the keys; the data cloud S1 hosts the
	// encrypted relation and drives the protocol rounds.
	cc := sectopk.NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register("demo", owner.Keys()); err != nil {
		log.Fatal(err)
	}
	dc := sectopk.NewDataCloud()
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		log.Fatal(err)
	}
	if err := dc.Host(ctx, "demo", er); err != nil {
		log.Fatal(err)
	}

	// An authorized client asks for the top-2 by the sum of all three
	// attributes; one Execute is one query's lifecycle.
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		log.Fatal(err)
	}
	ans, err := dc.Execute(ctx, sectopk.TopKRequest("demo", tk,
		sectopk.WithMode(sectopk.ModeEliminate),
		sectopk.WithHalting(sectopk.HaltingStrict),
	))
	if err != nil {
		log.Fatal(err)
	}

	// The client reveals the encrypted answer with the owner's keys.
	results, err := owner.Reveal(er, ans.TopK)
	if err != nil {
		log.Fatal(err)
	}
	for rank, r := range results {
		fmt.Printf("top-%d: object %d, score %d\n", rank+1, r.Object, r.Score)
	}
	// Output:
	// top-1: object 2, score 18
	// top-2: object 1, score 16
}
