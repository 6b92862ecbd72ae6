// Command sectopk-node runs the paper's deployment roles as separate
// processes (Section 3.2's architecture) on the public sectopk API,
// using files for the artifacts a real deployment would move between
// parties:
//
//	# Data owner: generate keys, encrypt datasets, issue tokens. The
//	# -workloads flag selects which query workloads to provision
//	# (topk, join, knn — comma separated).
//	sectopk-node owner -dir ./deploy -dataset insurance -rows 40 \
//	    -attrs 0,1,2 -k 3 -workloads topk,join,knn
//
//	# Crypto cloud S2: serve the secret-key operations over TCP.
//	sectopk-node s2 -dir ./deploy -listen 127.0.0.1:9042 \
//	    -join-relation join -knn-relation knn
//
//	# Data cloud S1, one-shot mode: load the encrypted relation +
//	# token, execute the query against S2, store the encrypted
//	# result.
//	sectopk-node s1 -dir ./deploy -connect 127.0.0.1:9042
//
//	# Data cloud S1, server mode: host every provisioned workload and
//	# serve remote queriers on the client wire protocol. -probe-listen
//	# adds /healthz and /readyz for orchestration; -drain-timeout makes
//	# shutdown graceful (in-flight queries finish, new ones shed).
//	sectopk-node s1 -dir ./deploy -connect 127.0.0.1:9042 \
//	    -join-relation join -knn-relation knn \
//	    -client-listen 127.0.0.1:9142 \
//	    -probe-listen 127.0.0.1:9143 -drain-timeout 30s
//
//	# Querier: dial the data cloud's client listener, submit the stored
//	# token of any workload, store the encrypted answer.
//	sectopk-node query -dir ./deploy -connect 127.0.0.1:9142 -workload topk
//	sectopk-node query -dir ./deploy -connect 127.0.0.1:9142 -workload join
//	sectopk-node query -dir ./deploy -connect 127.0.0.1:9142 -workload knn
//
//	# Client: decrypt a stored answer with the owner's keys.
//	sectopk-node reveal -dir ./deploy -workload topk
//
//	# Owner: mutate the live relation without re-encrypting it. Each
//	# flag's mutation becomes one encrypted delta shipped to S1 over the
//	# client wire (deletes, then updates, then inserts), -compact folds
//	# the accumulated tombstones, and the owner's mirror + the hosted
//	# bundle are re-saved at the new epoch so query/reveal keep working.
//	sectopk-node apply -dir ./deploy -connect 127.0.0.1:9142 \
//	    -delete 0,4 -update "2=8,8,8" -insert "3,5,7;2,9,1" -compact
//
//	# Cluster: the owner cuts per-member shard subsets (-shards 4 -nodes 2
//	# writes relation.node{0,1}-of-2.er), each member hosts its subset and
//	# serves the cluster plane, and a front door assembles the placement
//	# and serves queriers over the fleet. Answers are revealed-identical
//	# to a single node hosting everything.
//	sectopk-node s1 -dir ./deploy -connect 127.0.0.1:9042 \
//	    -subset relation.node0-of-2.er -member-id m0 \
//	    -cluster-listen 127.0.0.1:9242 -probe-listen 127.0.0.1:9243
//	sectopk-node s1 -dir ./deploy -connect 127.0.0.1:9042 \
//	    -subset relation.node1-of-2.er -member-id m1 \
//	    -cluster-listen 127.0.0.1:9244 -probe-listen 127.0.0.1:9245
//	sectopk-node s1 -dir ./deploy -connect 127.0.0.1:9042 \
//	    -cluster-nodes 127.0.0.1:9242,127.0.0.1:9244 \
//	    -client-listen 127.0.0.1:9142 -probe-listen 127.0.0.1:9143
//
// The owner's key files never travel to S1; the encrypted relations
// never travel to S2; the querier holds only tokens and encrypted
// answers. All serving roles honor SIGINT/SIGTERM by canceling the
// serving/query context, which stops a query within one protocol round.
// No flag sizes a role's worker goroutines: GOMAXPROCS does, and
// GOMAXPROCS=1 runs a role serially with nonce pools off.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/sectopk"
)

const (
	s2KeysFile     = "s2.keys"           // decryption keys -> crypto cloud only (top-k + kNN)
	joinKeysFile   = "s2-join.keys"      // join decryption keys -> crypto cloud only
	ownerFile      = "owner.bundle"      // full scheme state -> stays with owner
	joinOwnerFile  = "join-owner.bundle" // join scheme state -> stays with owner
	relationFile   = "relation.er"       // encrypted relation (+ public key) -> data cloud
	mirrorFile     = "relation.mr"       // owner's mutable mirror (plaintext + shadow) -> stays with owner
	join1File      = "join1.er"          // encrypted join relation 1 -> data cloud
	join2File      = "join2.er"          // encrypted join relation 2 -> data cloud
	knnFile        = "knn.er"            // encrypted kNN record store -> data cloud
	tokenFile      = "query.tk"          // top-k trapdoor -> querier
	joinTokenFile  = "join.tk"           // join trapdoor -> querier
	knnTokenFile   = "knn.tk"            // kNN trapdoor -> querier
	resultFile     = "result.items"      // encrypted top-k result -> back to client
	joinResultFile = "join-result.items" // encrypted join result -> back to client
	knnResultFile  = "knn-result.items"  // encrypted kNN result -> back to client
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "owner":
		err = runOwner(os.Args[2:])
	case "s2":
		err = runS2(ctx, os.Args[2:])
	case "s1":
		err = runS1(ctx, os.Args[2:])
	case "query":
		err = runQuery(ctx, os.Args[2:])
	case "apply":
		err = runApply(ctx, os.Args[2:])
	case "reveal":
		err = runReveal(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sectopk-node %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sectopk-node {owner|s2|s1|query|apply|reveal} [flags]")
	fmt.Fprintln(os.Stderr, "worker goroutines per role: GOMAXPROCS (GOMAXPROCS=1 runs serially)")
	os.Exit(2)
}

// parseWorkloads splits and validates the -workloads flag.
func parseWorkloads(s string) (map[string]bool, error) {
	out := map[string]bool{}
	for _, w := range strings.Split(s, ",") {
		switch w = strings.TrimSpace(w); w {
		case "topk", "join", "knn":
			out[w] = true
		case "":
		default:
			return nil, fmt.Errorf("unknown workload %q (want topk, join, or knn)", w)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no workloads selected")
	}
	return out, nil
}

// parseTenantLimits parses the -tenant-limits syntax: comma-separated
// name=rate[:burst] entries, rate in requests/second.
func parseTenantLimits(s string) (map[string]sectopk.Rate, error) {
	out := map[string]sectopk.Rate{}
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("tenant limit %q is not name=rate[:burst]", part)
		}
		rateStr, burstStr, hasBurst := strings.Cut(spec, ":")
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("tenant %q: rate %q must be a positive number", name, rateStr)
		}
		r := sectopk.Rate{PerSecond: rate}
		if hasBurst {
			b, err := strconv.Atoi(strings.TrimSpace(burstStr))
			if err != nil || b <= 0 {
				return nil, fmt.Errorf("tenant %q: burst %q must be a positive integer", name, burstStr)
			}
			r.Burst = b
		}
		out[strings.TrimSpace(name)] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenant limits in %q", s)
	}
	return out, nil
}

// parseMode maps the shared -mode flag to a query mode.
func parseMode(mode string) (sectopk.Mode, error) {
	switch mode {
	case "f":
		return sectopk.ModeFull, nil
	case "e":
		return sectopk.ModeEliminate, nil
	case "ba":
		return sectopk.ModeBatched, nil
	}
	return 0, fmt.Errorf("unknown mode %q", mode)
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseRows parses the -insert syntax: rows split by ';', attribute
// scores by ','.
func parseRows(s string) ([][]int64, error) {
	var out [][]int64
	for _, part := range strings.Split(s, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		row, err := parseInt64s(part)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no rows in %q", s)
	}
	return out, nil
}

// parseUpdates parses the -update syntax: 'id=scores' pairs split by
// ';', scores by ','.
func parseUpdates(s string) (map[int][]int64, error) {
	out := map[int][]int64{}
	for _, part := range strings.Split(s, ";") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		id, scores, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("update %q is not id=scores", part)
		}
		v, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("parsing update id %q: %w", id, err)
		}
		row, err := parseInt64s(scores)
		if err != nil {
			return nil, err
		}
		out[v] = row
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no updates in %q", s)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing score list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parsing attribute list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
