// Live updates: the mutation plane through the public sectopk API —
// host an encrypted relation, then insert, update, delete, and compact
// without ever re-encrypting the whole thing, checking revealed answers
// against a plaintext oracle after every epoch.
//
// The paper's scheme is encrypt-once: the owner uploads the ER and goes
// offline. This example shows the incremental-write extension layered on
// top of it:
//
//	sectopk.MutableRelation  the owner's live handle: plaintext mirror +
//	                         encrypted shadow, producing signed-off deltas
//	sectopk.Delta            one atomic mutation bundle with an
//	                         idempotency key and a base epoch
//	DataCloud.Apply          S1 lands a delta, advancing the epoch
//	DataCloud.Compact        folds accumulated tombstones
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/sectopk"
)

func main() {
	ctx := context.Background()

	// 1. Encrypt and host, exactly like the static pipeline — plus a
	//    mutable handle over the same relation. The handle keeps the
	//    plaintext mirror AND an encrypted shadow of what S1 hosts, so
	//    the owner can build deltas and re-issue tokens at any epoch.
	owner, err := sectopk.NewOwner(
		sectopk.WithKeyBits(256),
		sectopk.WithMaxScoreBits(20),
		sectopk.WithShards(2),
	)
	if err != nil {
		log.Fatalf("owner: %v", err)
	}
	rel := &sectopk.Relation{
		Name: "live",
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
	mr, err := owner.NewMutable(rel, er)
	if err != nil {
		log.Fatalf("mutable handle: %v", err)
	}

	cc := sectopk.NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register("live", owner.Keys()); err != nil {
		log.Fatalf("register: %v", err)
	}
	dc := sectopk.NewDataCloud()
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		log.Fatalf("connect: %v", err)
	}
	if err := dc.Host(ctx, "live", er); err != nil {
		log.Fatalf("host: %v", err)
	}
	fmt.Printf("hosted %q at epoch %d with %d live rows\n", "live", mr.Epoch(), mr.LiveRows())

	// The plaintext oracle this demo checks every answer against.
	oracle := map[int][]int64{}
	for id, row := range rel.Rows {
		oracle[id] = append([]int64(nil), row...)
	}

	// ship lands one delta on S1 and synchronizes the owner's shadow to
	// the epoch S1 reports. A delta is atomic: it either lands whole
	// (epoch +1) or not at all, and its idempotency key makes a retry
	// after an ambiguous failure safe.
	ship := func(what string, d *sectopk.Delta, err error) {
		if err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		epoch, err := dc.Apply(ctx, "live", d)
		if err != nil {
			log.Fatalf("%s apply: %v", what, err)
		}
		if err := mr.Adopt(epoch); err != nil {
			log.Fatalf("%s adopt: %v", what, err)
		}
		fmt.Printf("%-26s -> epoch %d (%d live, %d tombstoned)\n", what, epoch, mr.LiveRows(), mr.DeadRows())
	}

	// 2. Insert two fresh rows: they join the sorted lists at their
	//    correct encrypted positions. New rows get the next global ids.
	ins := [][]int64{{9, 9, 9}, {2, 10, 4}}
	d, err := mr.InsertRows(ins)
	ship("insert 2 rows", d, err)
	oracle[5], oracle[6] = ins[0], ins[1]

	// 3. Update one row's scores (object 1): under the hood a delete of
	//    its old entries plus an insert of fresh ciphertexts, one atomic
	//    delta — the id stays live throughout.
	d, err = mr.UpdateScores(map[int][]int64{1: {12, 1, 7}})
	ship("update object 1", d, err)
	oracle[1] = []int64{12, 1, 7}

	// 4. Delete object 0. S1 moves its entries to the tombstone tail;
	//    queries exclude them BY CONSTRUCTION (the live prefix is all the
	//    engine ever sees), not by filtering.
	d, err = mr.DeleteRows([]int{0})
	ship("delete object 0", d, err)
	delete(oracle, 0)

	// 5. Query at the current epoch. Tokens come from the mutable handle
	//    so list positions match the live view; the request pins the
	//    epoch, so a concurrent writer would surface as a typed
	//    ErrRelationStale instead of a silently inconsistent answer.
	query := func() {
		tk, err := mr.Token(sectopk.Query{Attrs: []int{0, 1, 2}, K: 3})
		if err != nil {
			log.Fatalf("token: %v", err)
		}
		ans, err := dc.Execute(ctx, sectopk.TopKRequest("live", tk,
			sectopk.WithEpoch(mr.Epoch())))
		if err != nil {
			log.Fatalf("query: %v", err)
		}
		erv, err := mr.Encrypted()
		if err != nil {
			log.Fatalf("encrypted view: %v", err)
		}
		got, err := owner.Reveal(erv, ans.TopK)
		if err != nil {
			log.Fatalf("reveal: %v", err)
		}
		fmt.Printf("top-3 at epoch %d:\n", mr.Epoch())
		for i, r := range got {
			fmt.Printf("  %d. object %d, aggregate score %d\n", i+1, r.Object, r.Score)
		}
		// Check against the plaintext oracle.
		type sr struct {
			id    int
			score int64
		}
		var all []sr
		for id, row := range oracle {
			all = append(all, sr{id, row[0] + row[1] + row[2]})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].score != all[j].score {
				return all[i].score > all[j].score
			}
			return all[i].id < all[j].id
		})
		for i, r := range got {
			if r.Object != all[i].id || r.Score != all[i].score {
				log.Fatalf("rank %d: got object %d score %d, oracle says object %d score %d",
					i+1, r.Object, r.Score, all[i].id, all[i].score)
			}
		}
		fmt.Println("  matches the plaintext oracle")
	}
	query()

	// 6. Compact: fold the tombstone debt the update and delete left
	//    behind. Compaction never changes the live view — only reclaims
	//    the dead tails — so it is safe at any time and the owner's
	//    shadow replays it locally from the epoch number alone.
	epoch, err := dc.Compact(ctx, "live")
	if err != nil {
		log.Fatalf("compact: %v", err)
	}
	if err := mr.Adopt(epoch); err != nil {
		log.Fatalf("adopt compaction: %v", err)
	}
	fmt.Printf("%-26s -> epoch %d (%d live, %d tombstoned)\n", "compact", epoch, mr.LiveRows(), mr.DeadRows())
	query()
}
