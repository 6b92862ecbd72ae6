package main

import (
	"context"
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"repro/sectopk"
)

// dialClient dials a data cloud client listener through the shared
// recovery stack: capped exponential backoff with jitter bounded by the
// wait window (the querier typically races the server's startup), and a
// client that keeps re-dialing and retrying shed/transport failures for
// the session. A protocol-version mismatch is final and surfaces
// immediately. Given a comma-separated list the dial fans across the
// nodes in order, splitting the wait window between them, and a fully
// failed fan surfaces the LAST node's error: in a half-up cluster the
// early entries fail with whatever transient state they were caught in,
// while the final attempt ran with the most time elapsed — that is the
// message that diagnoses what is still down.
func dialClient(ctx context.Context, addrs string, wait time.Duration, opts ...sectopk.Option) (*sectopk.Client, error) {
	list := splitList(addrs)
	if len(list) == 0 {
		return nil, fmt.Errorf("no data cloud address to dial")
	}
	per := wait / time.Duration(len(list))
	var lastErr error
	for _, addr := range list {
		client, err := sectopk.Dial(ctx, addr, append([]sectopk.Option{sectopk.WithRetry(sectopk.RetryPolicy{
			Initial:    50 * time.Millisecond,
			Max:        time.Second,
			MaxElapsed: per,
		})}, opts...)...)
		if err == nil {
			return client, nil
		}
		lastErr = fmt.Errorf("dialing %s: %w", addr, err)
	}
	return nil, lastErr
}

func runQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := fs.String("dir", ".", "artifact directory")
	connect := fs.String("connect", "127.0.0.1:9142", "data cloud client-listen address(es), comma separated — first reachable wins")
	workload := fs.String("workload", "topk", "workload: topk|join|knn")
	relation := fs.String("relation", "", "relation ID (defaults to \"default\" for topk, the workload name otherwise)")
	mode := fs.String("mode", "e", "query mode: f|e|ba (topk only)")
	tenant := fs.String("tenant", "", "tenant to identify as in the Hello (QoS admission bucket; empty = default tenant)")
	wait := fs.Duration("wait", 15*time.Second, "how long to retry dialing the server")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rel := *relation
	if rel == "" {
		if *workload == "topk" {
			rel = "default"
		} else {
			rel = *workload
		}
	}
	var req sectopk.Request
	var out string
	switch *workload {
	case "topk":
		tk, err := sectopk.LoadToken(filepath.Join(*dir, tokenFile))
		if err != nil {
			return err
		}
		qmode, err := parseMode(*mode)
		if err != nil {
			return err
		}
		req = sectopk.TopKRequest(rel, tk, sectopk.WithMode(qmode))
		out = resultFile
	case "join":
		tk, err := sectopk.LoadJoinToken(filepath.Join(*dir, joinTokenFile))
		if err != nil {
			return err
		}
		req = sectopk.JoinRequest(rel, tk)
		out = joinResultFile
	case "knn":
		tk, err := sectopk.LoadKNNToken(filepath.Join(*dir, knnTokenFile))
		if err != nil {
			return err
		}
		req = sectopk.KNNRequest(rel, tk)
		out = knnResultFile
	default:
		return fmt.Errorf("unknown workload %q (want topk, join, or knn)", *workload)
	}
	var dialOpts []sectopk.Option
	if *tenant != "" {
		dialOpts = append(dialOpts, sectopk.WithTenant(*tenant))
	}
	client, err := dialClient(ctx, *connect, *wait, dialOpts...)
	if err != nil {
		return err
	}
	defer client.Close()
	start := time.Now()
	ans, err := client.Execute(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("%s query done: elapsed=%s client-rounds=%d client-bytes=%d s2-calls=%d fan-out=%d epoch=%d\n",
		*workload, time.Since(start).Round(time.Millisecond), ans.Traffic.Rounds, ans.Traffic.Bytes,
		ans.Traffic.S2Calls, ans.Traffic.FanOut, ans.Traffic.Epoch)
	path := filepath.Join(*dir, out)
	switch *workload {
	case "topk":
		fmt.Printf("depth=%d halted=%v\n", ans.TopK.Depth, ans.TopK.Halted)
		return ans.TopK.Save(path)
	case "join":
		return ans.Join.Save(path)
	default:
		return ans.KNN.Save(path)
	}
}
