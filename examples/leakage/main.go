// Leakage: run a query and print exactly what each cloud could observe —
// the CQA leakage profile of Section 9 (query pattern and halting depth
// for S1, per-round equality patterns for S2) plus the uniqueness pattern
// Section 10.1 trades for Qry_E's speed — all through the public API's
// LeakageEvents surfaces.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sectopk"
)

func main() {
	ctx := context.Background()
	owner, err := sectopk.NewOwner(
		sectopk.WithKeyBits(256),
		sectopk.WithEHLDigests(3),
		sectopk.WithMaxScoreBits(20),
	)
	if err != nil {
		log.Fatalf("owner: %v", err)
	}
	rel, err := sectopk.GenerateDataset("insurance", 12, 7)
	if err != nil {
		log.Fatalf("dataset: %v", err)
	}
	er, err := owner.Encrypt(rel)
	if err != nil {
		log.Fatalf("encrypt: %v", err)
	}

	cc := sectopk.NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register("insurance", owner.Keys()); err != nil {
		log.Fatalf("register: %v", err)
	}
	dc := sectopk.NewDataCloud()
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		log.Fatalf("connect: %v", err)
	}
	if err := dc.Host(ctx, "insurance", er); err != nil {
		log.Fatalf("host: %v", err)
	}

	// Run the same query twice: the second run should surface in the
	// query-pattern leakage.
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		log.Fatalf("token: %v", err)
	}
	for i := 0; i < 2; i++ {
		req := sectopk.TopKRequest("insurance", tk, sectopk.WithMode(sectopk.ModeEliminate))
		if _, err := dc.Execute(ctx, req); err != nil {
			log.Fatalf("query: %v", err)
		}
	}

	fmt.Println("=== S1 (data cloud) view — L1_Query = (QP, D_q) plus Qry_E's UP^d ===")
	for _, ev := range dc.LeakageEvents() {
		fmt.Println(" ", ev)
	}
	fmt.Println()
	fmt.Println("=== S2 (crypto cloud) view — L2_Query = {EP^d} ===")
	events := cc.LeakageEvents()
	max := 12
	for i, ev := range events {
		if i >= max {
			fmt.Printf("  ... and %d more rounds of the same shape\n", len(events)-max)
			break
		}
		fmt.Println(" ", ev)
	}
	fmt.Println()
	tr := dc.Traffic()
	fmt.Printf("traffic: %d rounds, %d bytes total — every payload blinded or permuted\n",
		tr.Rounds, tr.Bytes)
}
