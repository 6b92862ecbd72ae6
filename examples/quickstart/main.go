// Quickstart: the full SecTopK pipeline through the public sectopk API —
// encrypt a tiny relation, stand up the two clouds, execute a secure
// top-k query, and reveal the result.
//
// The roles map onto the paper's Section 3.2 architecture:
//
//	sectopk.Owner        the data owner (keys, Enc, Token, Reveal)
//	sectopk.CryptoCloud  S2, the only key holder, serving relations
//	sectopk.DataCloud    S1, hosting ciphertexts and driving the rounds
//	DataCloud.Execute    one query's lifecycle: token -> encrypted answer
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sectopk"
)

func main() {
	ctx := context.Background()

	// 1. The data owner generates keys and encrypts the relation. Every
	//    construction knob is a functional option.
	owner, err := sectopk.NewOwner(
		sectopk.WithKeyBits(256), // demo-sized; production wants 2048+
		sectopk.WithEHLDigests(3),
		sectopk.WithMaxScoreBits(20),
	)
	if err != nil {
		log.Fatalf("owner: %v", err)
	}
	rel := &sectopk.Relation{
		Name: "demo",
		Rows: [][]int64{
			{10, 3, 2},
			{8, 8, 0},
			{5, 7, 6},
			{3, 2, 8},
			{1, 1, 1},
		},
	}
	er, err := owner.Encrypt(rel)
	if err != nil {
		log.Fatalf("encrypt: %v", err)
	}
	fmt.Printf("encrypted %q: %d rows x %d attrs, %d bytes of ciphertext\n",
		er.Name(), er.Rows(), er.Attributes(), er.ByteSize())

	// 2. Stand up the crypto cloud S2 (holds the secret keys, registered
	//    per relation) and the data cloud S1, wired in-process with full
	//    wire accounting, then host the encrypted relation. Hosting runs
	//    the versioned Hello handshake, so incompatible peers or unknown
	//    relations fail here with typed errors.
	cc := sectopk.NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register("demo", owner.Keys()); err != nil {
		log.Fatalf("register: %v", err)
	}
	dc := sectopk.NewDataCloud()
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		log.Fatalf("connect: %v", err)
	}
	if err := dc.Host(ctx, "demo", er); err != nil {
		log.Fatalf("host: %v", err)
	}

	// 3. An authorized client asks for the top-2 by the sum of all three
	//    attributes and submits the token as a request. The context
	//    cancels the query cooperatively, bounded by one protocol round.
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		log.Fatalf("token: %v", err)
	}
	ans, err := dc.Execute(ctx, sectopk.TopKRequest("demo", tk,
		sectopk.WithMode(sectopk.ModeEliminate),
		sectopk.WithHalting(sectopk.HaltingStrict),
	))
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	res, tr := ans.TopK, ans.Traffic
	fmt.Printf("halted at depth %d after %d protocol rounds, %d bytes exchanged\n",
		res.Depth, tr.Rounds, tr.Bytes)

	// 4. The client decrypts the returned ids and worst scores.
	results, err := owner.Reveal(er, res)
	if err != nil {
		log.Fatalf("reveal: %v", err)
	}
	for rank, item := range results {
		fmt.Printf("top-%d: object %d with score %d\n", rank+1, item.Object, item.Score)
	}
}
