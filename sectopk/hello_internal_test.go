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
// each compare one constant for equality. A peer one version older or
// newer is refused typed (ErrProtocolVersion) by the serving side on its
// Hello and by the dialing side on the reply; only the current version
// passes.
func TestHelloWrongVersionRefused(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, v, cur int, err error) {
		t.Helper()
		if v == cur && err != nil {
			t.Errorf("v%d (current) refused: %v", v, err)
		}
		if v != cur && !errors.Is(err, ErrProtocolVersion) {
			t.Errorf("v%d against v%d: want ErrProtocolVersion, got %v", v, cur, err)
		}
	}

	t.Run("client wire", func(t *testing.T) {
		cur := clientProtocolVersion
		for _, v := range []int{0, cur - 1, cur, cur + 1} {
			server := transport.NewLocal(&clientResponder{}, nil)
			var rep clientHelloReply
			err := server.Call(ctx, methodClientHello, clientHello{Version: v}, &rep)
			check(t, v, cur, err)
			if err == nil && rep.Version != cur {
				t.Errorf("server answered v%d", rep.Version)
			}
			check(t, v, cur, (&Client{}).helloOn(ctx, transport.NewLocal(replyAt(v), nil)))
		}
	})

	t.Run("cluster wire", func(t *testing.T) {
		cur := cluster.ProtocolVersion
		member := &clusterResponder{inv: &clusterInventory{d: NewDataCloud()}}
		for _, v := range []int{cur - 1, cur, cur + 1} {
			var rep cluster.HelloReply
			err := transport.NewLocal(member, nil).Call(ctx, cluster.MethodHello, cluster.HelloRequest{Version: v}, &rep)
			check(t, v, cur, err)
			if err == nil && rep.Version != cur {
				t.Errorf("member answered v%d", rep.Version)
			}
			_, err = clusterHello(ctx, transport.NewLocal(replyAt(v), nil))
			check(t, v, cur, err)
		}
	})
}
