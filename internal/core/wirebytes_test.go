package core

import (
	"context"
	"math/big"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// integerBytes is a transport.Caller that adds up the integers —
// ciphertexts, and the ephemeral modulus beside them — in the requests
// and replies passing through it, and their bytes.
type integerBytes struct {
	inner    transport.Caller
	n, count atomic.Int64
}

func (c *integerBytes) Call(ctx context.Context, method string, req, resp any) error {
	err := c.inner.Call(ctx, method, req, resp)
	for _, m := range []any{req, resp} {
		n, count := sumIntegerBytes(reflect.ValueOf(m))
		c.n.Add(n)
		c.count.Add(count)
	}
	return err
}

func sumIntegerBytes(v reflect.Value) (n, count int64) {
	if !v.IsValid() {
		return 0, 0
	}
	if x, ok := v.Interface().(*big.Int); ok {
		return int64(len(x.Bytes())), 1
	}
	switch v.Kind() {
	case reflect.Pointer:
		return sumIntegerBytes(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dn, dc := sumIntegerBytes(v.Field(i))
			n, count = n+dn, count+dc
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			dn, dc := sumIntegerBytes(v.Index(i))
			n, count = n+dn, count+dc
		}
	}
	return n, count
}

// TestWireBytesAreCiphertextBytes runs TestRoundBudget's query — the
// benchmark's shape: Qry_F, m=3, k=2, halting at depth 2 — through the
// batcher, as a deployment does, and holds what the link counts to within
// 3 % of the ciphertext bytes the 7 rounds carry: the paper's measure of
// bandwidth (Section 11.2.5) and the one transport.Stats reports. It pins
// the integers those rounds carry, 221, of which the one SecWorstBest
// round takes 108: 18 bits, each a test and two payloads out, a bit and
// two payloads back. Qry_F's dedup and its update of T take none (251
// while SecUpdate's 3×3 matrix took 33 each way and the bits one payload
// each), and depth 1, which cannot halt, ranks nothing.
func TestWireBytesAreCiphertextBytes(t *testing.T) {
	r := getRig(t)
	rel := &dataset.Relation{Name: "ranked"}
	for i := 0; i < 8; i++ {
		base := int64(100 - 10*i)
		rel.Rows = append(rel.Rows, []int64{base, base + 1, base + 2})
	}
	er, err := r.scheme.EncryptRelation(rel)
	if err != nil {
		t.Fatalf("EncryptRelation: %v", err)
	}
	stats := transport.NewStats()
	batcher := cloud.NewBatcher(transport.NewLocal(r.server, stats))
	defer batcher.Close()
	payload := &integerBytes{inner: batcher}
	client, err := cloud.NewClient(payload, r.scheme.PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	tk, err := r.scheme.Token(er, []int{0, 1, 2}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(client, er)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SecQuery(context.Background(), tk, Options{Mode: QryF})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.Depth != 2 || stats.Rounds() != 7 {
		t.Fatalf("depth=%d halted=%v rounds=%d, want 2/true/7", res.Depth, res.Halted, stats.Rounds())
	}
	wire, cts := stats.Bytes(), payload.n.Load()
	t.Logf("%d bytes on the link for %d integers of %d bytes: %.2f%% framing", wire, payload.count.Load(), cts, 100*float64(wire-cts)/float64(cts))
	if n := payload.count.Load(); n != 221 {
		t.Errorf("the query carried %d integers, want 221", n)
	}
	if wire < cts || float64(wire) > 1.03*float64(cts) {
		t.Errorf("link carried %d bytes for %d bytes of integers; want within 3%%", wire, cts)
	}
}
