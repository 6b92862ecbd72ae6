// Package repro is a from-scratch Go reproduction of "Top-k Query
// Processing on Encrypted Databases with Strong Security Guarantees"
// (Meng, Zhu, Kollios — ICDE 2018): the SecTopK scheme, its EHL/EHL+
// encrypted hash lists, the two-cloud sub-protocol suite, the secure
// top-k join operator, and the full evaluation harness.
//
// The stable entry point is the repro/sectopk package — the public v1
// API exposing the four deployment roles (Owner, CryptoCloud, DataCloud,
// Client) with context-first calls, typed errors, and a versioned wire
// protocol. Everything under internal/ is implementation.
//
// See README.md for the architecture overview, the layer diagram, and
// the concurrency model: GOMAXPROCS is the one worker budget of the
// worker-pooled execution core. The
// root-level benchmarks in bench_test.go regenerate every table and
// figure of the paper's evaluation; the same runners are reachable
// through cmd/sectopk-bench. Timings of the system itself, end to end
// and per layer, come from `bash benchmark/run.sh`.
package repro
