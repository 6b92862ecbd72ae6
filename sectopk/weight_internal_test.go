package sectopk

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/core"
)

// TestNegativeWeightRefusedOverWire sends a top-k token with a negative
// weight, which Owner.Token never issues but the client wire carries as a
// signed varint, to a data cloud in process and over TCP. Both refuse it
// with ErrInvalidToken before any S2 round: a negative real score could
// fall below a marked duplicate and lose its top-k place to it.
func TestNegativeWeightRefusedOverWire(t *testing.T) {
	ctx := context.Background()
	owner, err := NewOwner(WithKeyBits(256), WithMaxScoreBits(8))
	if err != nil {
		t.Fatal(err)
	}
	er, err := owner.Encrypt(&Relation{Name: "r", Rows: [][]int64{{10, 3, 2}, {8, 8, 0}, {5, 7, 6}, {3, 2, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := owner.Token(er, Query{Attrs: []int{0, 1, 2}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cc := NewCryptoCloud()
	defer cc.Close()
	if err := cc.Register("topk", owner.Keys()); err != nil {
		t.Fatal(err)
	}
	dc := NewDataCloud()
	defer dc.Close()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if err := dc.Host(ctx, "topk", er); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- dc.ServeClients(serveCtx, l) }()
	defer func() { stop(); <-done }()
	client, err := Dial(ctx, l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	neg := &Token{tk: &core.Token{K: 2, Lists: tk.tk.Lists, Weights: []int64{1, -1, 1}}}
	if _, err := dc.Execute(ctx, TopKRequest("topk", neg)); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("in process: err = %v, want ErrInvalidToken", err)
	}
	if _, err := client.Execute(ctx, TopKRequest("topk", neg)); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("over the client wire: err = %v, want ErrInvalidToken", err)
	}
	if _, err := client.Execute(ctx, TopKRequest("topk", tk)); err != nil {
		t.Errorf("the issued token over the same wire: %v", err)
	}
}
