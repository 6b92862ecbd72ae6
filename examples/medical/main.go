// Medical: the paper's motivating Example 1.1 — an authorized doctor runs
// SELECT * FROM patients ORDER BY chol + thalach STOP AFTER 2 over an
// encrypted heart-disease table, through the public sectopk API. The
// expected top-2 are the records of David and Emma.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sectopk"
)

// Attribute layout of the patients relation (Table 1 of the paper).
const (
	attrAge = iota
	attrID
	attrTrestbps
	attrChol
	attrThalach
)

func main() {
	ctx := context.Background()
	names := []string{"Bob", "Celvin", "David", "Emma", "Flora"}
	patients := &sectopk.Relation{
		Name: "patients",
		Rows: [][]int64{
			// age, id, trestbps, chol, thalach
			{38, 121, 110, 196, 166}, // Bob
			{43, 222, 120, 201, 160}, // Celvin
			{60, 285, 100, 248, 142}, // David
			{36, 956, 120, 267, 112}, // Emma
			{43, 756, 100, 223, 127}, // Flora
		},
	}

	// The data owner (the hospital) encrypts the table before
	// outsourcing; HIPAA-style compliance means the cloud sees only
	// ciphertexts.
	owner, err := sectopk.NewOwner(
		sectopk.WithKeyBits(256),
		sectopk.WithMaxScoreBits(16),
	)
	if err != nil {
		log.Fatalf("owner: %v", err)
	}
	er, err := owner.Encrypt(patients)
	if err != nil {
		log.Fatalf("encrypt: %v", err)
	}

	// Two non-colluding clouds: S2 holds the keys, S1 holds the data.
	cc := sectopk.NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register("patients", owner.Keys()); err != nil {
		log.Fatalf("register: %v", err)
	}
	dc := sectopk.NewDataCloud()
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		log.Fatalf("connect: %v", err)
	}
	if err := dc.Host(ctx, "patients", er); err != nil {
		log.Fatalf("host: %v", err)
	}

	// Dr. Alice requests a token for ORDER BY chol + thalach STOP AFTER 2
	// and S1 runs the fully private Qry_F variant.
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{attrChol, attrThalach}, K: 2})
	if err != nil {
		log.Fatalf("token: %v", err)
	}
	ans, err := dc.Execute(ctx, sectopk.TopKRequest("patients", tk, sectopk.WithMode(sectopk.ModeFull)))
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	res := ans.TopK

	results, err := owner.Reveal(er, res)
	if err != nil {
		log.Fatalf("reveal: %v", err)
	}
	fmt.Println("top-2 patients by chol + thalach:")
	for rank, item := range results {
		fmt.Printf("  %d. %s (chol=%d, thalach=%d, score=%d)\n",
			rank+1, names[item.Object],
			patients.Rows[item.Object][attrChol], patients.Rows[item.Object][attrThalach],
			item.Score)
	}
	fmt.Printf("(the cloud scanned %d of %d depths and learned neither scores nor ids)\n",
		res.Depth, er.Rows())
}
