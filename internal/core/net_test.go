package core

import (
	"context"
	"net"
	"testing"

	"repro/internal/cloud"
	"repro/internal/transport"
)

// TestSecQueryOverNetworkTransport runs the full Figure 3 query with S1
// and S2 talking over a real framed connection (net.Pipe), proving every
// protocol message round-trips through the wire codec.
func TestSecQueryOverNetworkTransport(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)

	c1, c2 := net.Pipe()
	defer c1.Close()
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- transport.ServeConn(context.Background(), c2, r.server)
	}()

	stats := transport.NewStats()
	caller, err := transport.Connect(context.Background(), c1, stats)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	client, err := cloud.NewClient(caller, r.scheme.PublicKey(), cloud.NewLedger())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(client, er)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE})
	if err != nil {
		t.Fatalf("SecQuery over network: %v", err)
	}
	if res.Depth != fig3ExactDepth || !res.Halted {
		t.Fatalf("network run: depth=%d halted=%v, want %d/true", res.Depth, res.Halted, fig3ExactDepth)
	}
	rev, err := r.scheme.NewRevealer(er.N)
	if err != nil {
		t.Fatal(err)
	}
	revealed, err := rev.RevealTopK(res.Items)
	if err != nil {
		t.Fatal(err)
	}
	if revealed[0].Obj != 2 || revealed[1].Obj != 1 {
		t.Fatalf("network top-2 = %+v", revealed)
	}
	if stats.Rounds() == 0 || stats.Bytes() == 0 {
		t.Fatal("network stats not recorded")
	}
	caller.Close()
	c2.Close()
	if err := <-serveDone; err != nil {
		t.Logf("server exit: %v", err) // pipe teardown may surface io errors; informational
	}
}
