package sectopk

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/transport"
)

// replyAt answers every Hello with a reply at a fixed version — a peer
// built at another version, as the dialing side sees it.
type replyAt int

func (v replyAt) Serve(_ context.Context, method string, _ []byte) ([]byte, error) {
	if method == cluster.MethodHello {
		return transport.Encode(cluster.HelloReply{Version: int(v)})
	}
	return transport.Encode(clientHelloReply{Version: int(v)})
}

// TestHelloWrongVersionRefused: the querier plane and the cluster plane
// each compare one constant for equality. A peer at the previous version
// (named below by what it still carried), at any other older version or
// one newer is refused typed (ErrProtocolVersion) by the serving side on
// its Hello and by the dialing side on the reply; only the current
// version passes.
func TestHelloWrongVersionRefused(t *testing.T) {
	ctx := context.Background()
	type version struct {
		name string
		v    int
	}
	check := func(t *testing.T, v version, cur int, err error) {
		t.Helper()
		if v.v == cur && err != nil {
			t.Errorf("%s (current) refused: %v", v.name, err)
		}
		if v.v != cur && !errors.Is(err, ErrProtocolVersion) {
			t.Errorf("%s against v%d: want ErrProtocolVersion, got %v", v.name, cur, err)
		}
	}

	t.Run("client wire", func(t *testing.T) {
		cur := clientProtocolVersion
		if cur != 7 {
			t.Fatalf("client wire is v%d: name the version it replaced below", cur)
		}
		for _, v := range []version{
			{"v0", 0},
			{"v6, the Execute request with an idempotency key", 6},
			{"v7", 7},
			{"v8", 8},
		} {
			server := transport.NewLocal(&clientResponder{}, nil)
			var rep clientHelloReply
			err := server.Call(ctx, methodClientHello, clientHello{Version: v.v}, &rep)
			check(t, v, cur, err)
			if err == nil && rep.Version != cur {
				t.Errorf("server answered v%d", rep.Version)
			}
			check(t, v, cur, (&Client{}).helloOn(ctx, transport.NewLocal(replyAt(v.v), nil)))
		}
	})

	t.Run("cluster wire", func(t *testing.T) {
		cur := cluster.ProtocolVersion
		if cur != 6 {
			t.Fatalf("cluster wire is v%d: name the version it replaced below", cur)
		}
		member := &clusterResponder{inv: &clusterInventory{d: NewDataCloud()}}
		for _, v := range []version{
			{"v4, the candidate options with Sort", 4},
			{"v5, the candidate options with an idempotency key", 5},
			{"v6", 6},
			{"v7", 7},
		} {
			var rep cluster.HelloReply
			err := transport.NewLocal(member, nil).Call(ctx, cluster.MethodHello, cluster.HelloRequest{Version: v.v}, &rep)
			check(t, v, cur, err)
			if err == nil && rep.Version != cur {
				t.Errorf("member answered v%d", rep.Version)
			}
			_, err = clusterHello(ctx, transport.NewLocal(replyAt(v.v), nil))
			check(t, v, cur, err)
		}
	})
}
