package cloud

import (
	"context"
	"errors"
	"io"
	"math/big"
	"net"
	"sync/atomic"
	"testing"
	"time"

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

// prefaceAt is the connection preface transport.Connect sends, with its
// version byte set to v: the opening of a peer built at wire version v.
func prefaceAt(t *testing.T, v int) []byte {
	t.Helper()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go transport.Connect(context.Background(), c2, nil)
	b := make([]byte, 4)
	if _, err := io.ReadFull(c1, b); err != nil {
		t.Fatalf("reading this build's preface: %v", err)
	}
	b[3] = byte(v)
	return b
}

// countCalls counts the rounds that reach a responder.
type countCalls struct {
	transport.Responder
	n atomic.Int64
}

func (c *countCalls) Serve(ctx context.Context, method string, body []byte) ([]byte, error) {
	c.n.Add(1)
	return c.Responder.Serve(ctx, method, body)
}

// TestHelloWrongVersionRefused: the Hello round carries no version of its
// own; the one wire version is compared for equality at the connection
// preface, before any Hello is read. Server and Service alike, behind
// transport.ServeConn, refuse a peer at any other version typed with no
// round reaching them, and answer the Hello of a peer at the current
// version; dialing a responder that answers at another version fails
// typed before Handshake can run.
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
			open := prefaceAt(t, v)
			counted := &countCalls{Responder: responder}
			c1, c2 := net.Pipe()
			served := make(chan error, 1)
			go func() { defer c2.Close(); served <- transport.ServeConn(ctx, c2, counted) }()
			if v == cur {
				caller, err := transport.Connect(ctx, c1, nil)
				if err == nil {
					err = Handshake(ctx, caller, "r")
					caller.Close()
				}
				if err != nil || counted.n.Load() != 1 {
					t.Errorf("%s: Hello at v%d: %v after %d rounds", name, v, err, counted.n.Load())
				}
				c1.Close()
				<-served
			} else {
				go c1.Write(open)
				go io.Copy(io.Discard, c1) // the server's own preface
				select {
				case err := <-served:
					if !errors.Is(err, secerr.ErrProtocolVersion) {
						t.Errorf("%s: peer at v%d: want ErrProtocolVersion, got %v", name, v, err)
					}
				case <-time.After(5 * time.Second):
					t.Errorf("%s: kept waiting on a peer at v%d", name, v)
				}
				c1.Close()
				if n := counted.n.Load(); n != 0 {
					t.Errorf("%s: %d rounds from a peer at v%d reached the responder", name, n, v)
				}
			}
		}
	}
	for _, v := range []int{cur - 1, cur + 1} {
		answer := prefaceAt(t, v)
		c1, c2 := net.Pipe()
		go func() {
			io.ReadFull(c2, make([]byte, len(answer)))
			c2.Write(answer)
		}()
		if _, err := transport.Connect(ctx, c1, nil); !errors.Is(err, secerr.ErrProtocolVersion) {
			t.Errorf("dialing a v%d responder: want ErrProtocolVersion, got %v", v, err)
		}
		c1.Close()
		c2.Close()
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
	err = caller.Call(ctx, MethodHello, &HelloRequest{Relation: "ghost"}, &hr)
	if !errors.Is(err, secerr.ErrUnknownRelation) {
		t.Fatalf("want ErrUnknownRelation over TCP, got %v", err)
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
	if err := caller.Call(ctx, MethodHello, &HelloRequest{Relation: "r"}, &hr); err != nil {
		t.Fatalf("connection unusable after errors: %v", err)
	}
}
