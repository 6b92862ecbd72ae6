package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cloud"
	"repro/internal/transport"
)

// withProcs sets GOMAXPROCS, the one worker budget, until the test ends.
// Parties decide on nonce pools when they are built, so it must run
// before construction.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSecQuerySerialParallelEquivalence pins the concurrency contract: a
// query executed at GOMAXPROCS 1 (plain serial loops, nonce pools off)
// and one at GOMAXPROCS 8 over the same keys and encrypted relation
// return identical top-k results at identical halting depths, in every
// query mode. Under `go test -race` this doubles as the data-race check
// for the whole fan-out (engine, protocols, cloud, paillier, dj).
func TestSecQuerySerialParallelEquivalence(t *testing.T) {
	r := getRig(t)
	er := encryptFig3(t, r)

	type outcome struct {
		revealed []RevealedResult
		depth    int
		halted   bool
	}
	run := func(procs int, mode Mode) outcome {
		t.Helper()
		withProcs(t, procs)
		server, err := cloud.NewServer(r.scheme.KeyMaterial(), nil)
		if err != nil {
			t.Fatalf("NewServer(GOMAXPROCS=%d): %v", procs, err)
		}
		defer server.Close()
		client, err := cloud.NewClient(transport.NewLocal(server, transport.NewStats()),
			r.scheme.PublicKey(), nil)
		if err != nil {
			t.Fatalf("NewClient(GOMAXPROCS=%d): %v", procs, err)
		}
		defer client.Close()
		tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 3)
		if err != nil {
			t.Fatalf("Token: %v", err)
		}
		engine, err := NewEngine(client, er)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		res, err := engine.SecQuery(context.Background(), tk, Options{Mode: mode, Halt: HaltStrict})
		if err != nil {
			t.Fatalf("SecQuery(%v, GOMAXPROCS=%d): %v", mode, procs, err)
		}
		rev, err := r.scheme.NewRevealer(er.N)
		if err != nil {
			t.Fatalf("NewRevealer: %v", err)
		}
		revealed, err := rev.RevealTopK(res.Items)
		if err != nil {
			t.Fatalf("RevealTopK: %v", err)
		}
		return outcome{revealed: revealed, depth: res.Depth, halted: res.Halted}
	}

	for _, mode := range []Mode{QryF, QryE, QryBa} {
		serial := run(1, mode)
		pooled := run(8, mode)
		if serial.depth != pooled.depth || serial.halted != pooled.halted {
			t.Errorf("%v: serial (depth=%d halted=%v) vs parallel (depth=%d halted=%v)",
				mode, serial.depth, serial.halted, pooled.depth, pooled.halted)
		}
		if len(serial.revealed) != len(pooled.revealed) {
			t.Fatalf("%v: result sizes differ: %d vs %d", mode, len(serial.revealed), len(pooled.revealed))
		}
		for i := range serial.revealed {
			if serial.revealed[i] != pooled.revealed[i] {
				t.Errorf("%v: rank %d differs: serial %+v vs parallel %+v",
					mode, i, serial.revealed[i], pooled.revealed[i])
			}
		}
	}
}
