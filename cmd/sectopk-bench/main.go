// Command sectopk-bench regenerates the paper's evaluation artifacts: one
// -exp flag per table/figure (see DESIGN.md's experiment index).
//
// Usage:
//
//	sectopk-bench -exp fig9                 # one experiment, scaled defaults
//	sectopk-bench -exp all -rows 200        # the full evaluation sweep
//	sectopk-bench -exp fig7 -keybits 512    # paper-like key size
//	sectopk-bench -exp micro                # crypto hot paths -> BENCH_<date>.json
//	sectopk-bench -list                     # list experiment ids
//
// Markdown output (-md) emits tables ready for EXPERIMENTS.md. The micro
// experiment additionally writes a machine-readable BENCH_<date>.json
// (op, ns/op, key bits, knob settings) so the perf trajectory is tracked
// across PRs; -json overrides its path.
//
// Unlike sectopk-node and the examples — which sit entirely on the
// public sectopk API — this binary deliberately drives internal/bench:
// the evaluation harness measures implementation internals (fixed
// tokens, per-method wire stats, leakage ledgers, crypto micro-paths)
// that a stable public facade intentionally does not expose.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment id (micro, qps, mutate, soak, fig7, fig8, fig9, fig10, fig11, fig12, tab3, fig13, knn, fig14, ablation, or 'all')")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		keyBits   = flag.Int("keybits", 256, "Paillier modulus bits (paper-scale: 512)")
		ehlS      = flag.Int("ehl-s", 3, "number of EHL+ digests s (paper: 5)")
		rows      = flag.Int("rows", 120, "dataset rows after scaling")
		maxDepth  = flag.Int("maxdepth", 6, "depth cap for time-per-depth measurements")
		seed      = flag.Int64("seed", 1, "dataset generator seed")
		par       = flag.Int("parallelism", 0, "worker goroutines per layer (0 = all cores, 1 = serial)")
		fastNonce = flag.Bool("fast-nonce", false, "enable the short-exponent fixed-base nonce path in every layer (extra assumption; see DESIGN.md)")
		shards    = flag.Int("shards", 4, "shard count for the qps experiment's sharded scenarios")
		clients   = flag.Int("clients", 8, "concurrent client sessions for the qps experiment")
		queries   = flag.Int("queries", 4, "timed queries per client in the qps experiment (larger damps variance)")
		md        = flag.Bool("md", false, "emit markdown tables instead of text")
		jsonPath  = flag.String("json", "", "output path for the micro/qps experiments' JSON record (default BENCH_<date>.json)")

		soakClients  = flag.Int("soak-clients", 200, "soak: total concurrent clients across all tenants")
		soakDuration = flag.Duration("soak-duration", 8*time.Second, "soak: wall-clock budget for the timed window")
		soakSessions = flag.Int("soak-sessions", 0, "soak: serving node session limit (0 = node default)")
		soakTenants  = flag.String("soak-tenants", "", "soak: comma list of name=clients[@rate[:burst]] tenant slices, e.g. gold=8,bronze=8@2:2 (empty = gold/bronze default split)")

		clusterConnect  = flag.String("cluster-connect", "", "qps: measure a running cluster front door at this client address instead of the in-process matrix (rows append to the existing qps record)")
		clusterNodes    = flag.Int("cluster-nodes", 0, "qps: S1 member count behind -cluster-connect, recorded per row")
		clusterToken    = flag.String("cluster-token", "query.tk", "qps: stored top-k trapdoor for the cluster rows (sectopk-node owner artifact)")
		clusterRelation = flag.String("cluster-relation", "default", "qps: relation ID hosted by the cluster front door")
	)
	flag.Parse()

	if *list {
		fmt.Println("micro")
		fmt.Println("qps")
		fmt.Println("mutate")
		fmt.Println("soak")
		for _, id := range bench.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "sectopk-bench: -exp is required (try -list)")
		os.Exit(2)
	}

	cfg := bench.Config{
		KeyBits:          *keyBits,
		EHLS:             *ehlS,
		MaxScoreBits:     20,
		Rows:             *rows,
		MaxDepth:         *maxDepth,
		Seed:             *seed,
		Parallelism:      *par,
		FastNonce:        *fastNonce,
		Shards:           *shards,
		Clients:          *clients,
		QueriesPerClient: *queries,
	}
	if !*md {
		cfg.Out = os.Stdout
	}

	if *exp == "micro" {
		runMicro(cfg, *md, *jsonPath)
		return
	}
	if *exp == "qps" {
		if *clusterConnect != "" {
			runQPSCluster(bench.ClusterConfig{
				Connect:          *clusterConnect,
				Nodes:            *clusterNodes,
				Shards:           *shards,
				Relation:         *clusterRelation,
				TokenPath:        *clusterToken,
				KeyBits:          *keyBits,
				Clients:          *clients,
				QueriesPerClient: *queries,
			}, *md, *jsonPath)
			return
		}
		runQPS(cfg, *md, *jsonPath)
		return
	}
	if *exp == "mutate" {
		runMutate(cfg, *md, *jsonPath)
		return
	}
	if *exp == "soak" {
		tenants, err := parseSoakTenants(*soakTenants)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sectopk-bench: %v\n", err)
			os.Exit(2)
		}
		scfg := bench.SoakConfig{
			Config:       cfg,
			Duration:     *soakDuration,
			SessionLimit: *soakSessions,
			Tenants:      tenants,
		}
		scfg.Clients = *soakClients
		runSoak(scfg, *md, *jsonPath)
		return
	}

	rig, err := bench.NewRig(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: %v\n", err)
		os.Exit(1)
	}
	defer rig.Close()

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		reports, err := bench.Run(rig, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sectopk-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *md {
			for _, rep := range reports {
				if err := rep.Markdown(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "sectopk-bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// runMicro measures the crypto hot paths and writes the machine-readable
// BENCH_<date>.json perf record alongside the human-readable table.
func runMicro(cfg bench.Config, md bool, jsonPath string) {
	start := time.Now()
	rep, err := bench.RunMicro(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: micro: %v\n", err)
		os.Exit(1)
	}
	table := rep.Report()
	var renderErr error
	if md {
		renderErr = table.Markdown(os.Stdout)
	} else {
		renderErr = table.Render(os.Stdout)
	}
	if renderErr != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: %v\n", renderErr)
		os.Exit(1)
	}
	path, err := rep.SaveJSON(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: writing perf record: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[micro done in %s; perf record -> %s]\n",
		time.Since(start).Round(time.Millisecond), path)
}

// runMutate measures the incremental-write plane (delta apply cost,
// compaction, post-mutation query latency vs a fresh re-encryption) and
// merges the machine-readable record into BENCH_<date>.json.
func runMutate(cfg bench.Config, md bool, jsonPath string) {
	start := time.Now()
	rep, err := bench.RunMutate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: mutate: %v\n", err)
		os.Exit(1)
	}
	table := rep.Report()
	var renderErr error
	if md {
		renderErr = table.Markdown(os.Stdout)
	} else {
		renderErr = table.Render(os.Stdout)
	}
	if renderErr != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: %v\n", renderErr)
		os.Exit(1)
	}
	path, err := rep.SaveJSON(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: writing perf record: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[mutate done in %s; perf record -> %s]\n",
		time.Since(start).Round(time.Millisecond), path)
}

// parseSoakTenants parses the -soak-tenants spec: a comma list of
// name=clients[@rate[:burst]] slices. An omitted rate means the tenant
// runs unlimited; an omitted burst takes the admission layer's default.
func parseSoakTenants(s string) ([]bench.SoakTenant, error) {
	if s == "" {
		return nil, nil
	}
	var out []bench.SoakTenant
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-soak-tenants: %q is not name=clients[@rate[:burst]]", part)
		}
		t := bench.SoakTenant{Name: name}
		clientsStr, rateStr, limited := strings.Cut(rest, "@")
		n, err := strconv.Atoi(clientsStr)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-soak-tenants: %q: bad client count %q", part, clientsStr)
		}
		t.Clients = n
		if limited {
			rs, bs, hasBurst := strings.Cut(rateStr, ":")
			rate, err := strconv.ParseFloat(rs, 64)
			if err != nil || rate <= 0 {
				return nil, fmt.Errorf("-soak-tenants: %q: bad rate %q", part, rs)
			}
			t.PerSecond = rate
			if hasBurst {
				b, err := strconv.Atoi(bs)
				if err != nil || b <= 0 {
					return nil, fmt.Errorf("-soak-tenants: %q: bad burst %q", part, bs)
				}
				t.Burst = b
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// runSoak soaks the serving plane (mixed tenants and workloads over real
// TCP) and merges the tail-latency/shed record into BENCH_<date>.json.
// A run that fails with anything other than typed overload/deadline
// sheds exits non-zero — the CI smoke leans on that.
func runSoak(scfg bench.SoakConfig, md bool, jsonPath string) {
	start := time.Now()
	rep, err := bench.RunSoak(scfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: soak: %v\n", err)
		os.Exit(1)
	}
	table := rep.Report()
	var renderErr error
	if md {
		renderErr = table.Markdown(os.Stdout)
	} else {
		renderErr = table.Render(os.Stdout)
	}
	if renderErr != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: %v\n", renderErr)
		os.Exit(1)
	}
	path, err := rep.SaveJSON(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: writing perf record: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[soak done in %s; perf record -> %s]\n",
		time.Since(start).Round(time.Millisecond), path)
	if !rep.Clean() {
		fmt.Fprintf(os.Stderr, "sectopk-bench: soak: non-typed errors observed: %v\n", rep.Errors)
		os.Exit(1)
	}
}

// runQPSCluster measures one cluster throughput row against a running
// sectopk-node front door and appends it to the qps record in
// BENCH_<date>.json (the in-process rows, if present, are kept).
func runQPSCluster(ccfg bench.ClusterConfig, md bool, jsonPath string) {
	start := time.Now()
	rep, err := bench.RunQPSCluster(ccfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: qps cluster: %v\n", err)
		os.Exit(1)
	}
	table := rep.Report()
	var renderErr error
	if md {
		renderErr = table.Markdown(os.Stdout)
	} else {
		renderErr = table.Render(os.Stdout)
	}
	if renderErr != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: %v\n", renderErr)
		os.Exit(1)
	}
	path, err := rep.AppendJSON(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: writing perf record: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[qps cluster row (nodes=%d clients=%d) done in %s; appended -> %s]\n",
		ccfg.Nodes, ccfg.Clients, time.Since(start).Round(time.Millisecond), path)
}

// runQPS measures data-plane throughput (shards x clients)
// and merges the machine-readable record into BENCH_<date>.json.
func runQPS(cfg bench.Config, md bool, jsonPath string) {
	start := time.Now()
	rep, err := bench.RunQPS(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: qps: %v\n", err)
		os.Exit(1)
	}
	table := rep.Report()
	var renderErr error
	if md {
		renderErr = table.Markdown(os.Stdout)
	} else {
		renderErr = table.Render(os.Stdout)
	}
	if renderErr != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: %v\n", renderErr)
		os.Exit(1)
	}
	path, err := rep.SaveJSON(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-bench: writing perf record: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[qps done in %s; perf record -> %s]\n",
		time.Since(start).Round(time.Millisecond), path)
}
