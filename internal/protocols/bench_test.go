package protocols

import (
	"context"
	"testing"

	"repro/internal/cloud"
	"repro/internal/paillier"
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

// BenchmarkSecDedupReplace times Qry_F's dedup of one depth's m = 3 rows:
// one grouped gadget round (EqBits, groups of m - 1 tests), the blind
// records' Dedup round it replaced gone.
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
		if _, err := SecMult(context.Background(), e.client, as, bs); err != nil {
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
