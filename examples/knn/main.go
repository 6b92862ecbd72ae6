// Secure kNN: the Section 11.3 baseline operator as a first-class
// workload of the public API — encrypt a record store, host it on the
// data cloud, ask for the k records nearest a query point, and check the
// revealed answer against the plaintext oracle.
//
// Unlike SecTopK's depth-bounded scans, every kNN query touches all n
// records with O(n*m) secure multiplications between the clouds; this
// cost shape is exactly what the paper's evaluation compares against.
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"repro/sectopk"
)

func main() {
	ctx := context.Background()

	// 1. The data owner encrypts the record store. The kNN digest key is
	//    part of the owner's persistent state, so a restored owner can
	//    still reveal answers (see Owner.Save / LoadOwner).
	owner, err := sectopk.NewOwner(
		sectopk.WithKeyBits(256), // demo-sized; production wants 2048+
		sectopk.WithMaxScoreBits(20),
	)
	if err != nil {
		log.Fatalf("owner: %v", err)
	}
	rel := &sectopk.Relation{
		Name: "points",
		Rows: [][]int64{
			{10, 3, 2},
			{8, 8, 0},
			{5, 7, 6},
			{3, 2, 8},
			{1, 1, 1},
		},
	}
	ker, err := owner.EncryptKNN(rel)
	if err != nil {
		log.Fatalf("encrypt: %v", err)
	}

	// 2. Stand up the clouds and host the record store.
	cc := sectopk.NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register("points", owner.Keys()); err != nil {
		log.Fatalf("register: %v", err)
	}
	dc := sectopk.NewDataCloud()
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		log.Fatalf("connect: %v", err)
	}
	if err := dc.HostKNN(ctx, "points", ker); err != nil {
		log.Fatalf("host: %v", err)
	}

	// 3. Ask for the 2 records nearest (5,5,5) through the unified
	//    request surface.
	point := []int64{5, 5, 5}
	tk, err := owner.KNNToken(ker, sectopk.KNNQuery{Point: point, K: 2})
	if err != nil {
		log.Fatalf("token: %v", err)
	}
	ans, err := dc.Execute(ctx, sectopk.KNNRequest("points", tk))
	if err != nil {
		log.Fatalf("query: %v", err)
	}

	// 4. Reveal and check against the plaintext oracle: the secure
	//    protocol must return exactly the plaintext k nearest neighbors.
	got, err := owner.RevealKNN(ker, ans.KNN)
	if err != nil {
		log.Fatalf("reveal: %v", err)
	}
	want, err := sectopk.PlainKNN(rel, point, 2)
	if err != nil {
		log.Fatalf("plain oracle: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		log.Fatalf("secure kNN disagrees with plaintext oracle: %+v vs %+v", got, want)
	}
	for rank, nn := range got {
		fmt.Printf("nn-%d: object %d at squared distance %d\n", rank+1, nn.Object, nn.Distance)
	}
	fmt.Println("secure kNN answer matches the plaintext oracle")
}
