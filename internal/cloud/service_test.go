package cloud

import (
	"context"
	"errors"
	"math/big"
	"net"
	"testing"

	"repro/internal/paillier"
	"repro/internal/secerr"
	"repro/internal/transport"
)

// TestServiceRegistry exercises registration lifecycle and typed errors.
func TestServiceRegistry(t *testing.T) {
	e := env(t)
	svc := NewService()
	defer svc.Close()
	if err := svc.Register("patients", e.keys, nil); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := svc.Register("patients", e.keys, nil); !errors.Is(err, secerr.ErrRelationExists) {
		t.Fatalf("duplicate Register: want ErrRelationExists, got %v", err)
	}
	if err := svc.Register("", e.keys, nil); err == nil {
		t.Fatal("empty id accepted")
	}
	if got := svc.Relations(); len(got) != 1 || got[0] != "patients" {
		t.Fatalf("Relations = %v", got)
	}
	svc.Deregister("patients")
	if got := svc.Relations(); len(got) != 0 {
		t.Fatalf("Relations after Deregister = %v", got)
	}
	svc.Deregister("missing") // no-op
}

// TestServiceRouting routes a real round through the registry and checks
// unknown relations are rejected with the typed code.
func TestServiceRouting(t *testing.T) {
	e := env(t)
	svc := NewService()
	defer svc.Close()
	if err := svc.Register("r1", e.keys, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	client, err := NewClient(transport.NewLocal(svc, nil), &e.keys.Paillier.PublicKey, nil,
		WithRelation("r1"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Handshake(ctx); err != nil {
		t.Fatalf("Handshake: %v", err)
	}
	zero, err := e.keys.Paillier.PublicKey.EncryptZero()
	if err != nil {
		t.Fatal(err)
	}
	bits, _, err := client.Gadget(ctx, MethodEqBits, 1, 1, []*paillier.Ciphertext{zero}, []*paillier.Ciphertext{zero})
	if err != nil {
		t.Fatalf("EqBits via service: %v", err)
	}
	if len(bits) != 1 {
		t.Fatalf("EqBits returned %d bits", len(bits))
	}

	// A client naming an unregistered relation is rejected with the code.
	stranger, err := NewClient(transport.NewLocal(svc, nil), &e.keys.Paillier.PublicKey, nil,
		WithRelation("nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	if err := stranger.Handshake(ctx); !errors.Is(err, secerr.ErrUnknownRelation) {
		t.Fatalf("Handshake for unknown relation: want ErrUnknownRelation, got %v", err)
	}
	if _, _, err := stranger.Gadget(ctx, MethodEqBits, 1, 1, []*paillier.Ciphertext{zero}, []*paillier.Ciphertext{zero}); !errors.Is(err, secerr.ErrUnknownRelation) {
		t.Fatalf("EqBits for unknown relation: want ErrUnknownRelation, got %v", err)
	}
}

// helloAt answers every Hello claiming a fixed version, whatever it was
// sent.
type helloAt int

func (v helloAt) Serve(context.Context, string, []byte) ([]byte, error) {
	return transport.Encode(&HelloReply{Version: int(v)})
}

// TestHelloWrongVersionRefused: the Hello round compares one constant for
// equality. A peer one version older or newer is refused typed by Server
// and Service alike, and Handshake refuses a responder that answers at
// another version; only the current version passes.
func TestHelloWrongVersionRefused(t *testing.T) {
	e := env(t)
	svc := NewService()
	defer svc.Close()
	if err := svc.Register("r", e.keys, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cur := transport.ProtocolVersion
	for name, responder := range map[string]transport.Responder{"server": e.server, "service": svc} {
		for _, v := range []int{0, cur - 1, cur, cur + 1, 99} {
			var resp HelloReply
			err := transport.NewLocal(responder, nil).Call(ctx, MethodHello, &HelloRequest{Version: v}, &resp)
			if v != cur {
				if !errors.Is(err, secerr.ErrProtocolVersion) {
					t.Errorf("%s: Hello v%d: want ErrProtocolVersion, got %v", name, v, err)
				}
				continue
			}
			if err != nil || resp.Version != cur {
				t.Errorf("%s: Hello v%d: reply v%d, %v", name, v, resp.Version, err)
			}
		}
	}
	for _, v := range []int{cur - 1, cur + 1} {
		if err := Handshake(ctx, transport.NewLocal(helloAt(v), nil), ""); !errors.Is(err, secerr.ErrProtocolVersion) {
			t.Errorf("Handshake against a v%d responder: want ErrProtocolVersion, got %v", v, err)
		}
	}
}

// TestTypedErrorsSurviveTCP runs the Service behind the real framed
// transport and checks the error codes cross the wire intact.
func TestTypedErrorsSurviveTCP(t *testing.T) {
	e := env(t)
	svc := NewService()
	defer svc.Close()
	if err := svc.Register("r", e.keys, nil); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancelServe := context.WithCancel(context.Background())
	defer cancelServe()
	go func() { _ = transport.Serve(ctx, l, svc) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	caller, err := transport.Connect(ctx, conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()

	// Unknown relation.
	var hr HelloReply
	err = caller.Call(ctx, MethodHello, &HelloRequest{Version: transport.ProtocolVersion, Relation: "ghost"}, &hr)
	if !errors.Is(err, secerr.ErrUnknownRelation) {
		t.Fatalf("want ErrUnknownRelation over TCP, got %v", err)
	}
	// Version mismatch.
	err = caller.Call(ctx, MethodHello, &HelloRequest{Version: transport.ProtocolVersion + 1}, &hr)
	if !errors.Is(err, secerr.ErrProtocolVersion) {
		t.Fatalf("want ErrProtocolVersion over TCP, got %v", err)
	}
	// Unknown method.
	err = caller.Call(ctx, "Bogus", &HelloRequest{}, nil)
	if !errors.Is(err, secerr.ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod over TCP, got %v", err)
	}
	// Bad request (a zero ciphertext; the wire has no nil) routed to a
	// registered relation.
	var eq GadgetReply
	err = caller.Call(ctx, MethodEqBits, &GadgetRequest{Relation: "r", Width: 1, Cts: []*big.Int{new(big.Int)}, Pay: []*big.Int{big.NewInt(1)}}, &eq)
	if !errors.Is(err, secerr.ErrBadRequest) {
		t.Fatalf("want ErrBadRequest over TCP, got %v", err)
	}
	// The connection stays usable after typed errors.
	if err := caller.Call(ctx, MethodHello, &HelloRequest{Version: transport.ProtocolVersion, Relation: "r"}, &hr); err != nil {
		t.Fatalf("connection unusable after errors: %v", err)
	}
}
