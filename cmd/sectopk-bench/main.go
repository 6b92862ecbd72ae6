// Command sectopk-bench runs the measurements benchmark/ does not: the
// paper's evaluation artifacts (one -exp id per table/figure of Section
// 11), the multi-tenant soak, and one throughput row against a running
// sectopk-node fleet. DESIGN.md "Which tool answers which question" says
// what each tool is for; timings of the system itself come from
// `bash benchmark/run.sh`.
//
// Usage:
//
//	sectopk-bench -exp fig9                 # one experiment, scaled defaults
//	sectopk-bench -exp all -rows 200        # the full evaluation sweep
//	sectopk-bench -exp fig7 -keybits 512    # paper-like key size
//	sectopk-bench -exp soak -json soak.json # serving-plane soak
//	sectopk-bench -exp cluster -cluster-connect 127.0.0.1:9779 -json cluster.json
//	sectopk-bench -list                     # list experiment ids
//
// Markdown output (-md) emits tables ready for EXPERIMENTS.md. The soak
// and cluster experiments also write a machine-readable record, under
// their own key, into the file -json names (no -json, no record).
//
// Unlike sectopk-node and the examples — which sit entirely on the
// public sectopk API — this binary deliberately drives internal/bench:
// the figure runners measure implementation internals (fixed tokens,
// depth caps, EHL variants, per-method wire stats) that a stable public
// facade intentionally does not expose.
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
		exp       = flag.String("exp", "", "experiment id (see -list), or 'all' for every paper figure")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		keyBits   = flag.Int("keybits", 256, "Paillier modulus bits (paper-scale: 512)")
		ehlS      = flag.Int("ehl-s", 3, "number of EHL+ digests s (paper: 5)")
		rows      = flag.Int("rows", 120, "dataset rows after scaling")
		maxDepth  = flag.Int("maxdepth", 6, "depth cap for time-per-depth measurements")
		seed      = flag.Int64("seed", 1, "dataset generator seed")
		fastNonce = flag.Bool("fast-nonce", false, "enable the short-exponent fixed-base nonce path in every layer (extra assumption; see DESIGN.md)")
		shards    = flag.Int("shards", 4, "cluster: provisioned shard count, recorded per row")
		clients   = flag.Int("clients", 8, "cluster: concurrent querier connections")
		queries   = flag.Int("queries", 4, "cluster: timed queries per querier (larger damps variance)")
		md        = flag.Bool("md", false, "emit markdown tables instead of text")
		jsonPath  = flag.String("json", "", "soak, cluster: file to keep the JSON record in, under the experiment's key (empty = no record)")

		soakClients  = flag.Int("soak-clients", 200, "soak: total concurrent clients across all tenants")
		soakDuration = flag.Duration("soak-duration", 8*time.Second, "soak: wall-clock budget for the timed window")
		soakSessions = flag.Int("soak-sessions", 0, "soak: serving node session limit (0 = node default)")
		soakTenants  = flag.String("soak-tenants", "", "soak: comma list of name=clients[@rate[:burst]] tenant slices, e.g. gold=8,bronze=8@2:2 (empty = gold/bronze default split)")

		clusterConnect  = flag.String("cluster-connect", "", "cluster: client address of the running front door to measure (required; rows append to the record's cluster key)")
		clusterNodes    = flag.Int("cluster-nodes", 0, "cluster: S1 member count behind -cluster-connect, recorded per row")
		clusterToken    = flag.String("cluster-token", "query.tk", "cluster: stored top-k trapdoor (sectopk-node owner artifact)")
		clusterRelation = flag.String("cluster-relation", "default", "cluster: relation ID hosted by the cluster front door")
	)
	flag.Parse()

	if *list {
		for _, id := range append([]string{"soak", "cluster"}, bench.ExperimentIDs()...) {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "sectopk-bench: -exp is required (try -list)")
		os.Exit(2)
	}

	cfg := bench.Config{
		KeyBits:      *keyBits,
		EHLS:         *ehlS,
		MaxScoreBits: 20,
		Rows:         *rows,
		MaxDepth:     *maxDepth,
		Seed:         *seed,
		FastNonce:    *fastNonce,
	}
	if !*md {
		cfg.Out = os.Stdout
	}

	if *exp == "cluster" {
		if *clusterConnect == "" {
			fmt.Fprintln(os.Stderr, "sectopk-bench: -exp cluster measures a running fleet: -cluster-connect is required")
			os.Exit(2)
		}
		runCluster(bench.ClusterConfig{
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
	if *exp == "soak" {
		tenants, err := parseSoakTenants(*soakTenants)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sectopk-bench: %v\n", err)
			os.Exit(2)
		}
		runSoak(bench.SoakConfig{
			Config:       cfg,
			Clients:      *soakClients,
			Duration:     *soakDuration,
			SessionLimit: *soakSessions,
			Tenants:      tenants,
		}, *md, *jsonPath)
		return
	}

	rig, err := bench.NewRig(cfg)
	if err != nil {
		fail("rig", err)
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
			fail(id, err)
		}
		if *md {
			for _, rep := range reports {
				if err := rep.Markdown(os.Stdout); err != nil {
					fail(id, err)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// fail prints the error and exits non-zero.
func fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "sectopk-bench: %s: %v\n", what, err)
	os.Exit(1)
}

// finish saves the record when -json named a file, prints the table and
// the timing line. Saving first lets a record that merges earlier runs
// (the cluster rows) show them in the table.
func finish(id string, start time.Time, jsonPath string, save func(string) error, table func() *bench.Report, md bool) {
	if jsonPath != "" {
		if err := save(jsonPath); err != nil {
			fail(id+": writing record", err)
		}
	}
	t := table()
	render := t.Render
	if md {
		render = t.Markdown
	}
	if err := render(os.Stdout); err != nil {
		fail(id, err)
	}
	fmt.Fprintf(os.Stderr, "[%s done in %s]\n", id, time.Since(start).Round(time.Millisecond))
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
// TCP). A run that fails with anything other than typed
// overload/deadline sheds exits non-zero — the CI smoke leans on that.
func runSoak(scfg bench.SoakConfig, md bool, jsonPath string) {
	start := time.Now()
	rep, err := bench.RunSoak(scfg)
	if err != nil {
		fail("soak", err)
	}
	finish("soak", start, jsonPath, rep.SaveJSON, rep.Report, md)
	if !rep.Clean() {
		fmt.Fprintf(os.Stderr, "sectopk-bench: soak: non-typed errors observed: %v\n", rep.Errors)
		os.Exit(1)
	}
}

// runCluster measures one throughput row against a running sectopk-node
// front door and appends it to the record's cluster rows, so the 2-node
// run's table shows its ratio to the 1-node row.
func runCluster(ccfg bench.ClusterConfig, md bool, jsonPath string) {
	start := time.Now()
	rep, err := bench.RunQPSCluster(ccfg)
	if err != nil {
		fail("cluster", err)
	}
	finish("cluster", start, jsonPath, rep.AppendJSON, rep.Report, md)
}
