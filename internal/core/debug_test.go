package core

import (
	"context"
	"testing"

	"repro/internal/protocols"
)

// TestDebugQryEFlake reruns the Figure 3 Qry_E query until it deviates
// from the expected halting depth and dumps the tracked list state.
// Skipped in normal runs; used to chase nondeterminism.
func TestDebugQryEFlake(t *testing.T) {
	if testing.Short() {
		t.Skip("debug helper")
	}
	r := getRig(t)
	er := encryptFig3(t, r)
	rev, err := r.scheme.NewRevealer(er.N)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 12; trial++ {
		tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := NewEngine(r.client, er)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryE})
		if err != nil {
			t.Fatal(err)
		}
		if res.Depth == fig3Depth {
			continue
		}
		t.Logf("trial %d: depth=%d halted=%v", trial, res.Depth, res.Halted)
		for i, it := range res.Items {
			obj, oerr := rev.Object(it.EHL)
			w, _ := rev.Score(it.Scores[protocols.ColWorst])
			b := int64(-999)
			if len(it.Scores) > 1 {
				b, _ = rev.Score(it.Scores[protocols.ColBest])
			}
			t.Logf("  item %d: obj=%d(err=%v) W=%d B=%d", i, obj, oerr, w, b)
		}
		t.Fatalf("trial %d deviated", trial)
	}
}
