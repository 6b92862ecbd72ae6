// Topkjoin: the Section 12 scenario — a secure top-k equi-join across two
// encrypted relations, through the public sectopk API:
//
//	SELECT ... FROM R1, R2 WHERE R1.dept = R2.dept
//	ORDER BY R1.rating + R2.budget STOP AFTER 3
//
// Neither cloud learns which tuples joined, only how many did.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sectopk"
)

func main() {
	ctx := context.Background()

	// R1(dept, rating, headcount), R2(dept, budget, projects).
	r1 := &sectopk.Relation{Name: "teams", Rows: [][]int64{
		{1, 90, 12},
		{2, 75, 7},
		{3, 82, 20},
		{2, 88, 5},
		{4, 60, 9},
	}}
	r2 := &sectopk.Relation{Name: "budgets", Rows: [][]int64{
		{2, 40, 3},
		{3, 55, 6},
		{1, 30, 2},
		{5, 99, 9},
	}}

	// One JoinOwner encrypts both relations under shared key material, so
	// the clouds can evaluate the equi-join condition across them.
	owner, err := sectopk.NewJoinOwner(
		sectopk.WithKeyBits(256),
		sectopk.WithEHLDigests(3),
		sectopk.WithMaxScoreBits(16),
	)
	if err != nil {
		log.Fatalf("owner: %v", err)
	}
	er1, err := owner.Encrypt(r1)
	if err != nil {
		log.Fatalf("encrypt R1: %v", err)
	}
	er2, err := owner.Encrypt(r2)
	if err != nil {
		log.Fatalf("encrypt R2: %v", err)
	}

	// One registration ("hr") covers every join over this owner's
	// relations; the data cloud hosts the pair under the same ID.
	cc := sectopk.NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register("hr", owner.Keys()); err != nil {
		log.Fatalf("register: %v", err)
	}
	dc := sectopk.NewDataCloud()
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		log.Fatalf("connect: %v", err)
	}
	if err := dc.HostJoin(ctx, "hr", er1, er2); err != nil {
		log.Fatalf("host: %v", err)
	}

	// Join on dept (attr 0 = attr 0), score by rating + budget
	// (attr 1 + attr 1), project headcount and projects.
	q := sectopk.JoinQuery{
		JoinAttr1: 0, JoinAttr2: 0,
		ScoreAttr1: 1, ScoreAttr2: 1,
		Project1: []int{2}, Project2: []int{2},
		K: 3,
	}
	tk, err := owner.Token(er1, er2, q)
	if err != nil {
		log.Fatalf("token: %v", err)
	}
	ans, err := dc.Execute(ctx, sectopk.JoinRequest("hr", tk))
	if err != nil {
		log.Fatalf("join: %v", err)
	}
	got, err := owner.Reveal(ans.Join)
	if err != nil {
		log.Fatalf("reveal: %v", err)
	}

	want, err := sectopk.PlainTopKJoin(r1, r2, q)
	if err != nil {
		log.Fatalf("plain join: %v", err)
	}
	tr := ans.Traffic
	fmt.Printf("secure top-%d join over %d x %d candidate pairs (%d rounds, %d bytes):\n",
		q.K, len(r1.Rows), len(r2.Rows), tr.Rounds, tr.Bytes)
	for i, t := range got {
		fmt.Printf("  %d. score=%d headcount=%d projects=%d (plaintext check: score=%d)\n",
			i+1, t.Score, t.Attrs[0], t.Attrs[1], want[i].Score)
	}
}
