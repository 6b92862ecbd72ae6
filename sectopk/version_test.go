package sectopk_test

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/sectopk"
)

// preface is the connection preface this build sends, as
// transport.Connect writes it, with its version byte set to v.
func preface(t *testing.T, v int) []byte {
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

// peerAt listens like a peer built at wire version v: it answers every
// preface with its own, at v, and closes.
func peerAt(t *testing.T, v int) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	answer := preface(t, v)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			io.ReadFull(conn, make([]byte, len(answer)))
			conn.Write(answer)
			conn.Close()
		}
	}()
	return l.Addr().String()
}

// oddPeer is a peer one wire version older or newer than this build,
// named by its side so that a version bump renames no subtest.
type oddPeer struct {
	name string
	v    int
}

func oddPeers(cur int) []oddPeer { return []oddPeer{{"older", cur - 1}, {"newer", cur + 1}} }

// TestWrongWireVersionRefused: transport.ProtocolVersion is the one wire
// version of a build, checked once per connection at the preface, for
// every plane. Each listener — the client plane, the cluster plane and
// the crypto cloud — answers a preface one version older or newer with
// its own preface and closes, before any Hello is read.
func TestWrongWireVersionRefused(t *testing.T) {
	ctx := context.Background()
	cur := transport.ProtocolVersion
	if cur != 12 {
		t.Fatalf("the wire is v%d: name the version it replaced in transport's TestPrefaceRefused", cur)
	}
	cc := sectopk.NewCryptoCloud(testOpts()...)
	t.Cleanup(cc.Close)
	dc := sectopk.NewDataCloud(testOpts()...)
	t.Cleanup(dc.Close)
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		t.Fatal(err)
	}
	want := preface(t, cur)
	for _, ln := range []struct {
		name  string
		serve func(context.Context, net.Listener) error
	}{
		{"ServeClients", dc.ServeClients},
		{"ServeCluster", dc.ServeCluster},
		{"CryptoCloud.Serve", cc.Serve},
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveOn(t, l, ln.serve)
		for _, peer := range oddPeers(cur) {
			v := peer.v
			t.Run(ln.name+"/"+peer.name, func(t *testing.T) {
				conn, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Write(preface(t, v)); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(want))
				if _, err := io.ReadFull(conn, got); err != nil || string(got) != string(want) {
					t.Fatalf("answered % x (%v), want its own preface % x", got, err, want)
				}
				if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
					t.Fatalf("kept the connection open: %v", err)
				}
			})
		}
	}
}

// TestHelloWrongVersionRefused: the client and cluster Hellos carry no
// versions of their own; a dialing path compares the one wire version at
// the preface, before it sends its Hello. sectopk.Dial (client plane),
// HostCluster (cluster plane) and DataCloud.Dial (S1 to S2) each refuse a
// peer that answers one version older or newer, typed ErrProtocolVersion.
func TestHelloWrongVersionRefused(t *testing.T) {
	ctx := context.Background()
	cur := transport.ProtocolVersion
	cc := sectopk.NewCryptoCloud(testOpts()...)
	t.Cleanup(cc.Close)
	for _, peer := range oddPeers(cur) {
		addr := peerAt(t, peer.v)
		for _, dial := range []struct {
			name string
			dial func() error
		}{
			{"Dial", func() error {
				c, err := sectopk.Dial(ctx, addr)
				if err == nil {
					c.Close()
				}
				return err
			}},
			{"HostCluster", func() error {
				front := sectopk.NewDataCloud(testOpts()...)
				defer front.Close()
				if err := front.ConnectLocal(ctx, cc); err != nil {
					return err
				}
				return front.HostCluster(ctx, []string{addr})
			}},
			{"DataCloud.Dial", func() error {
				s1 := sectopk.NewDataCloud(testOpts()...)
				defer s1.Close()
				return s1.Dial(ctx, addr)
			}},
		} {
			t.Run(dial.name+"/"+peer.name, func(t *testing.T) {
				if err := dial.dial(); !errors.Is(err, sectopk.ErrProtocolVersion) {
					t.Fatalf("want ErrProtocolVersion, got %v", err)
				}
			})
		}
	}
}
