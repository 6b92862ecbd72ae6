// Query plane: the networked querier role. One process stands up the
// full three-party deployment — crypto cloud S2, data cloud S1 serving
// the client wire protocol on a TCP listener, and a sectopk.Client
// dialing in like a remote querier would — then runs all three workloads
// (top-k, top-k join, kNN) through the one unified Request/Answer
// surface and reveals the answers with the owners' keys.
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"repro/sectopk"
)

func main() {
	ctx := context.Background()
	opts := []sectopk.Option{
		sectopk.WithKeyBits(256), // demo-sized; production wants 2048+
		sectopk.WithMaxScoreBits(20),
	}

	// 1. Owners encrypt: one relation hosted twice (top-k + kNN) and a
	//    join pair under the join owner's shared key material.
	owner, err := sectopk.NewOwner(opts...)
	if err != nil {
		log.Fatalf("owner: %v", err)
	}
	jowner, err := sectopk.NewJoinOwner(opts...)
	if err != nil {
		log.Fatalf("join owner: %v", err)
	}
	rel := &sectopk.Relation{Name: "demo", Rows: [][]int64{
		{10, 3, 2}, {8, 8, 0}, {5, 7, 6}, {3, 2, 8}, {1, 1, 1},
	}}
	er, err := owner.Encrypt(rel)
	if err != nil {
		log.Fatalf("encrypt: %v", err)
	}
	ker, err := owner.EncryptKNN(rel)
	if err != nil {
		log.Fatalf("encrypt knn: %v", err)
	}
	r1 := &sectopk.Relation{Name: "r1", Rows: [][]int64{{1, 10, 2}, {2, 8, 3}, {3, 5, 1}, {1, 7, 4}}}
	r2 := &sectopk.Relation{Name: "r2", Rows: [][]int64{{1, 6, 9}, {2, 2, 2}, {4, 1, 1}, {3, 3, 3}}}
	jr1, err := jowner.Encrypt(r1)
	if err != nil {
		log.Fatalf("encrypt r1: %v", err)
	}
	jr2, err := jowner.Encrypt(r2)
	if err != nil {
		log.Fatalf("encrypt r2: %v", err)
	}

	// 2. Crypto cloud S2: one service, three registered relations.
	cc := sectopk.NewCryptoCloud(opts...)
	defer cc.Close()
	for id, keys := range map[string]*sectopk.Keys{
		"topk": owner.Keys(), "knn": owner.Keys(), "join": jowner.Keys(),
	} {
		if err := cc.Register(id, keys); err != nil {
			log.Fatalf("register %s: %v", id, err)
		}
	}

	// 3. Data cloud S1: host every workload, then serve remote queriers
	//    on a real TCP listener. WithSessionLimit bounds how many
	//    admitted requests execute concurrently.
	dc := sectopk.NewDataCloud(append(opts, sectopk.WithSessionLimit(4))...)
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		log.Fatalf("connect: %v", err)
	}
	if err := dc.Host(ctx, "topk", er); err != nil {
		log.Fatalf("host topk: %v", err)
	}
	if err := dc.HostJoin(ctx, "join", jr1, jr2); err != nil {
		log.Fatalf("host join: %v", err)
	}
	if err := dc.HostKNN(ctx, "knn", ker); err != nil {
		log.Fatalf("host knn: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	serveCtx, stopServing := context.WithCancel(ctx)
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := dc.ServeClients(serveCtx, l); err != nil && serveCtx.Err() == nil {
			log.Printf("serve: %v", err)
		}
	}()

	// 4. A remote querier dials in and submits one request per workload
	//    through the same Request/Answer surface in-process callers use.
	//    Tokens are the only secret-adjacent material it ever holds.
	client, err := sectopk.Dial(ctx, l.Addr().String())
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer client.Close()

	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		log.Fatalf("token: %v", err)
	}
	ans, err := client.Execute(ctx, sectopk.TopKRequest("topk", tk))
	if err != nil {
		log.Fatalf("topk query: %v", err)
	}
	results, err := owner.Reveal(er, ans.TopK)
	if err != nil {
		log.Fatalf("reveal: %v", err)
	}
	for rank, item := range results {
		fmt.Printf("top-%d: object %d with score %d\n", rank+1, item.Object, item.Score)
	}

	jq := sectopk.JoinQuery{
		JoinAttr1: 0, JoinAttr2: 0, ScoreAttr1: 1, ScoreAttr2: 1,
		Project1: []int{0, 2}, Project2: []int{2}, K: 2,
	}
	jtk, err := jowner.Token(jr1, jr2, jq)
	if err != nil {
		log.Fatalf("join token: %v", err)
	}
	jans, err := client.Execute(ctx, sectopk.JoinRequest("join", jtk))
	if err != nil {
		log.Fatalf("join query: %v", err)
	}
	joined, err := jowner.Reveal(jans.Join)
	if err != nil {
		log.Fatalf("join reveal: %v", err)
	}
	for rank, tup := range joined {
		fmt.Printf("join-%d: score %d, attrs %v\n", rank+1, tup.Score, tup.Attrs)
	}

	ktk, err := owner.KNNToken(ker, sectopk.KNNQuery{Point: []int64{5, 5, 5}, K: 2})
	if err != nil {
		log.Fatalf("knn token: %v", err)
	}
	kans, err := client.Execute(ctx, sectopk.KNNRequest("knn", ktk))
	if err != nil {
		log.Fatalf("knn query: %v", err)
	}
	nns, err := owner.RevealKNN(ker, kans.KNN)
	if err != nil {
		log.Fatalf("knn reveal: %v", err)
	}
	for rank, nn := range nns {
		fmt.Printf("nn-%d: object %d at squared distance %d\n", rank+1, nn.Object, nn.Distance)
	}

	fmt.Printf("client wire: %d rounds, %d bytes\n", client.Traffic().Rounds, client.Traffic().Bytes)
	stopServing()
	<-serveDone
}
