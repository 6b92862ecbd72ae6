package protocols

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/paillier"
	"repro/internal/transport"
)

// Micro-benchmarks for the sub-protocol building blocks: per-call cost of
// each primitive round at the test key size. These feed the complexity
// accounting of Section 10.3 (cost per depth ~ SecWorst O(m) + SecBest
// O(md) + SecDedup O(m^2) + SecUpdate O(m^2 d)).

func benchItems(b *testing.B, e *testEnv, m int) []DepthItem {
	b.Helper()
	items := make([]DepthItem, m)
	for i := 0; i < m; i++ {
		items[i] = DepthItem{EHL: e.list(b, uint64(i%3)), Score: e.enc(b, int64(10+i))}
	}
	return items
}

func BenchmarkSecWorstM3(b *testing.B) {
	e := env(b)
	items := benchItems(b, e, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SecWorstAll(context.Background(), e.client, items); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecBestM3D4(b *testing.B) {
	e := env(b)
	const m, d = 3, 4
	hist := make([]ListHistory, m)
	for j := 0; j < m; j++ {
		for depth := 0; depth < d; depth++ {
			hist[j].EHLs = append(hist[j].EHLs, e.list(b, uint64(j*d+depth)))
			hist[j].Scores = append(hist[j].Scores, e.enc(b, int64(50-depth)))
		}
	}
	items := make([]DepthItem, m)
	for j := 0; j < m; j++ {
		items[j] = DepthItem{EHL: hist[j].EHLs[d-1], Score: hist[j].Scores[d-1]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SecBestAll(context.Background(), e.client, items, hist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecWorstBestMark times one Qry_F depth at the benchmark
// query's depth-2 shape (m = 3 lists, 3 digests, one object in two lists
// at the current depth and in a third at depth 1): SecWorstBestDepths'
// one EqBits round, then one MarkEarlier pass over depth 1's rows and the
// depth's, with no round.
func BenchmarkSecWorstBestMark(b *testing.B) {
	e := env(b)
	const m, d = 3, 2
	hist := make([]ListHistory, m)
	var earlier []Item
	for j := 0; j < m; j++ {
		for depth := 0; depth < d; depth++ {
			obj := uint64(j*d + depth)
			if depth == d-1 && j > 0 || depth == 0 && j == 0 {
				obj = 100
			}
			hist[j].EHLs = append(hist[j].EHLs, e.list(b, obj))
			hist[j].Scores = append(hist[j].Scores, e.enc(b, int64(50-depth)))
		}
		earlier = append(earlier, Item{EHL: hist[j].EHLs[0], Scores: []*paillier.Ciphertext{hist[j].Scores[0], hist[j].Scores[0]}})
	}
	items := make([]DepthItem, m)
	for j := 0; j < m; j++ {
		items[j] = DepthItem{EHL: hist[j].EHLs[d-1], Score: hist[j].Scores[d-1]}
	}
	pk := &e.keys.Paillier.PublicKey
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bounds, err := SecWorstBestDepths(context.Background(), e.client, [][]DepthItem{items}, hist)
		if err != nil {
			b.Fatal(err)
		}
		got := bounds[0]
		rows := append([]Item(nil), earlier...)
		for j := range items {
			rows = append(rows, Item{EHL: items[j].EHL, Scores: []*paillier.Ciphertext{got.Seen[j], got.Best[j]}})
		}
		if _, err := MarkEarlier(context.Background(), pk, rows, got.Marks, markShift); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecDedupReplace times SecDedup's Replace mode on m = 3 rows:
// one grouped gadget round (EqBits, groups of m - 1 tests). No query runs
// it since Qry_F marks its duplicates from SecWorstBest's bits; the
// benchmark's SecDedup seam still does.
func BenchmarkSecDedupReplace(b *testing.B) {
	e := env(b)
	items := []Item{
		e.item(b, 1, 10, 20),
		e.item(b, 1, 10, 20),
		e.item(b, 2, 30, 40),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SecDedup(context.Background(), e.client, items, cloud.DedupReplace, AllPairs(len(items)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecUpdate5x3 times Qry_F's SecUpdate at the benchmark seam's
// shape: 3 new items, one of them tracked, against 5 tracked ones. One
// EqBits round of a 3×5 equality matrix, each item's payloads sent once.
func BenchmarkSecUpdate5x3(b *testing.B) {
	e := env(b)
	tracked := []Item{e.item(b, 10, 700, 900), e.item(b, 11, 650, 880), e.item(b, 12, 600, 860), e.item(b, 1, 550, 840), e.item(b, 13, 500, 820)}
	gamma := []Item{e.item(b, 1, 90, 800), e.item(b, 14, 80, 790), e.item(b, 15, 70, 780)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SecUpdate(context.Background(), e.client, tracked, gamma, cloud.DedupReplace); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncCompare(b *testing.B) {
	e := env(b)
	x := e.enc(b, 100)
	y := e.enc(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncCompare(context.Background(), e.client, x, y, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecFilter8(b *testing.B) {
	e := env(b)
	tuples := make([]JoinTuple, 8)
	for i := range tuples {
		// Every other tuple joined.
		tuples[i] = JoinTuple{Score: e.enc(b, int64(i%2*(100+i))), Attrs: []*paillier.Ciphertext{e.enc(b, int64(i)), e.enc(b, int64(2*i))}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SecFilter(context.Background(), e.client, tuples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecMultBatch8(b *testing.B) {
	e := env(b)
	var as, bs []*paillier.Ciphertext
	for i := 0; i < 8; i++ {
		as = append(as, e.enc(b, int64(i)))
		bs = append(bs, e.enc(b, int64(i+1)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SecMult(context.Background(), e.client, as, bs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncSelectTop2Of6 ranks the top 2 of 6 items, the halting
// check's shape at depth 2 of a 3-list query: the six-input top-2
// selector's 4 layers.
func BenchmarkEncSelectTop2Of6(b *testing.B) {
	e := env(b)
	items := make([]Item, 6)
	for i := range items {
		items[i] = e.item(b, uint64(i), int64(i*7%13))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncSelectTop(context.Background(), e.client, items, 0, true, 2, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncSelectTop3Of8(b *testing.B) {
	e := env(b)
	items := make([]Item, 8)
	for i := range items {
		items[i] = e.item(b, uint64(i), int64(i*7%13))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncSelectTop(context.Background(), e.client, items, 0, true, 3, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncSelectTop8Of8 ranks all of 8 items, which runs Batcher's
// network.
func BenchmarkEncSelectTop8Of8(b *testing.B) {
	e := env(b)
	items := make([]Item, 8)
	for i := range items {
		items[i] = e.item(b, uint64(i), int64(i*7%13))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncSelectTop(context.Background(), e.client, items, 0, true, 8, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGadgetWidths is the production-key picture of short blinds and
// of S2's one-prime zero test, at 256-, 1024- and 2048-bit keys:
//
//   - apply/full and apply/declared: one ApplyBits round of 12 width-1
//     EqBits bits (SecWorstBest's shape at m = 3, depth 2), S1 and S2 in
//     one process, each payload blinded in Z_N against declared at 21
//     bits (20-bit scores under unit weights);
//   - zero/decrypt and zero/test: S2's reading of one EqBits test, a
//     full decryption compared with zero against PrivateKey.IsZero.
//
// A key is generated on its first row; safe primes for a 2048-bit key
// take a minute or more. CI runs the 256-bit rows:
// go test -run '^$' -bench 'GadgetWidths/key=256' -benchtime 3x ./internal/protocols
func BenchmarkGadgetWidths(b *testing.B) {
	const bits, declared = 12, 21
	parent := b
	for _, keyBits := range []int{256, 1024, 2048} {
		var (
			once   sync.Once
			sk     *paillier.PrivateKey
			client *cloud.Client
			tests  []*paillier.Ciphertext
			pay    []*paillier.Ciphertext
		)
		setup := func(b *testing.B) {
			once.Do(func() {
				keys, err := cloud.NewKeyMaterial(keyBits)
				if err != nil {
					b.Fatal(err)
				}
				srv, err := cloud.NewServer(keys, nil)
				if err != nil {
					b.Fatal(err)
				}
				if client, err = cloud.NewClient(transport.NewLocal(srv, nil), &keys.Paillier.PublicKey, nil); err != nil {
					b.Fatal(err)
				}
				parent.Cleanup(func() {
					client.Close()
					srv.Close()
				})
				sk = keys.Paillier
				for k := 0; k < bits; k++ {
					m := new(big.Int)
					if k%4 != 0 { // one equal in four, as a depth's pattern might be
						if m, err = rand.Int(rand.Reader, sk.N); err != nil {
							b.Fatal(err)
						}
					}
					test, err := sk.Encrypt(m)
					if err != nil {
						b.Fatal(err)
					}
					d, err := sk.Encrypt(big.NewInt(int64(k) << 16))
					if err != nil {
						b.Fatal(err)
					}
					tests, pay = append(tests, test), append(pay, d)
				}
			})
			if sk == nil {
				b.Fatal("no key")
			}
		}
		for _, c := range []struct {
			name  string
			width []int
		}{{"full", nil}, {"declared", []int{declared}}} {
			b.Run(fmt.Sprintf("key=%d/apply/%s", keyBits, c.name), func(b *testing.B) {
				setup(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := ApplyBits(context.Background(), client, cloud.MethodEqBits, 1, 1, tests, pay, c.width); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("key=%d/zero/decrypt", keyBits), func(b *testing.B) {
			setup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Decrypt(tests[i%bits]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("key=%d/zero/test", keyBits), func(b *testing.B) {
			setup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.IsZero(tests[i%bits]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
