// Benchmarks regenerating the paper's evaluation: one testing.B benchmark
// per query table and figure (DESIGN.md "Which tool answers which question"
// lists the ids). Each iteration runs the corresponding bench.Registry
// experiment end to end over the real two-party protocols at the scaled
// default configuration; per-iteration metrics are reported through
// b.ReportMetric so `go test -bench=.` output doubles as the measured
// series for EXPERIMENTS.md.
package repro_test

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/paillier"
	"repro/internal/zmath"
)

var (
	rigOnce sync.Once
	rig     *bench.Rig
	rigErr  error
)

// sharedRig reuses one keypair/cloud pair across all benchmarks; key
// generation would otherwise dominate every measurement.
func sharedRig(b *testing.B) *bench.Rig {
	b.Helper()
	rigOnce.Do(func() {
		cfg := bench.DefaultConfig()
		cfg.Rows = 60
		cfg.MaxDepth = 4
		rig, rigErr = bench.NewRig(cfg)
	})
	if rigErr != nil {
		b.Fatalf("rig: %v", rigErr)
	}
	return rig
}

func runExperiment(b *testing.B, id string) {
	r := sharedRig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := bench.Run(r, id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(reports) == 0 {
			b.Fatalf("%s produced no reports", id)
		}
	}
}

// BenchmarkFig9_QryF regenerates Figure 9 (Qry_F time per depth varying k
// and m).
func BenchmarkFig9_QryF(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10_QryE regenerates Figure 10 (Qry_E sweeps).
func BenchmarkFig10_QryE(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11_QryBa regenerates Figure 11 (Qry_Ba sweeps incl. the
// batching parameter p).
func BenchmarkFig11_QryBa(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12_Comparison regenerates Figure 12 (the three engines side
// by side).
func BenchmarkFig12_Comparison(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkTable3_Bandwidth regenerates Table 3 (communication bandwidth
// and modeled 50 Mbps latency).
func BenchmarkTable3_Bandwidth(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkFig13_Bandwidth regenerates Figure 13 (bandwidth per depth vs
// m; total bandwidth vs k).
func BenchmarkFig13_Bandwidth(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkKNNComparison regenerates the Section 11.3 comparison against
// the secure-kNN baseline.
func BenchmarkKNNComparison(b *testing.B) { runExperiment(b, "knn") }

// BenchmarkFig14_Join regenerates Figure 14 (top-k join time vs combined
// attributes).
func BenchmarkFig14_Join(b *testing.B) { runExperiment(b, "fig14") }

var (
	benchKeyOnce sync.Once
	benchKey     *paillier.PrivateKey
	benchKeyErr  error
)

func sharedKey(b *testing.B) *paillier.PrivateKey {
	b.Helper()
	benchKeyOnce.Do(func() {
		benchKey, benchKeyErr = paillier.GenerateKey(rand.Reader, 512)
	})
	if benchKeyErr != nil {
		b.Fatalf("key: %v", benchKeyErr)
	}
	return benchKey
}

// BenchmarkBatchEncrypt measures paillier.EncryptBatch throughput across
// the precomputation axis: the spec path (a full-width r^N mod N^2 per
// nonce, kept here as the reference), the key's fixed-base table (the one
// producer every party draws from), and the background nonce pool over
// it. The execution axis is GOMAXPROCS: run with -cpu 1,N to set the
// serial batch beside the worker-pooled one. At -cpu 1 the spec/table
// pair is the per-nonce cost comparison the precomputation layer is built
// around.
func BenchmarkBatchEncrypt(b *testing.B) {
	sk := sharedKey(b)
	pk := &sk.PublicKey
	const batch = 64
	ms := make([]*big.Int, batch)
	for i := range ms {
		ms[i] = big.NewInt(int64(i * 7))
	}
	run := func(name string, enc paillier.Encryptor) {
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(float64(batch), "cts/op")
			for i := 0; i < b.N; i++ {
				if _, err := paillier.EncryptBatch(enc, ms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("spec", paillier.NewNonceEncryptor(pk, func() (*big.Int, error) { return zmath.SpecNoncePower(pk.N, pk.N, pk.N2) }))
	if _, err := pk.NoncePower(); err != nil { // build the table outside the timed loop
		b.Fatal(err)
	}
	run("table", pk)
	pool := paillier.NewNoncePool(pk, 2, 4*batch)
	defer pool.Close()
	run("pooled", pool)
}
