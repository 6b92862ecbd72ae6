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

// integerBytes is a transport.Caller that adds up the bytes of every
// integer — ciphertexts, and the ephemeral modulus beside them — in the
// requests and replies passing through it.
type integerBytes struct {
	inner transport.Caller
	n     atomic.Int64
}

func (c *integerBytes) Call(ctx context.Context, method string, req, resp any) error {
	err := c.inner.Call(ctx, method, req, resp)
	c.n.Add(sumIntegerBytes(reflect.ValueOf(req)) + sumIntegerBytes(reflect.ValueOf(resp)))
	return err
}

func sumIntegerBytes(v reflect.Value) (n int64) {
	if !v.IsValid() {
		return 0
	}
	if x, ok := v.Interface().(*big.Int); ok {
		return int64(len(x.Bytes()))
	}
	switch v.Kind() {
	case reflect.Pointer:
		return sumIntegerBytes(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += sumIntegerBytes(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			n += sumIntegerBytes(v.Index(i))
		}
	}
	return n
}

// TestWireBytesAreCiphertextBytes runs TestRoundBudget's query — the
// benchmark's shape: Qry_F, m=3, k=2, halting at depth 2 — through the
// batcher, as a deployment does, and holds what the link counts to within
// 3 % of the ciphertext bytes the 15 rounds carry: the paper's measure of
// bandwidth (Section 11.2.5) and the one transport.Stats reports.
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
	if !res.Halted || res.Depth != 2 || stats.Rounds() != 15 {
		t.Fatalf("depth=%d halted=%v rounds=%d, want 2/true/15", res.Depth, res.Halted, stats.Rounds())
	}
	wire, cts := stats.Bytes(), payload.n.Load()
	t.Logf("%d bytes on the link for %d bytes of integers: %.2f%% framing", wire, cts, 100*float64(wire-cts)/float64(cts))
	if wire < cts || float64(wire) > 1.03*float64(cts) {
		t.Errorf("link carried %d bytes for %d bytes of integers; want within 3%%", wire, cts)
	}
}
