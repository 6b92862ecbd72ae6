package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/sectopk"
)

func runS1(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("s1", flag.ExitOnError)
	dir := fs.String("dir", ".", "artifact directory")
	connect := fs.String("connect", "127.0.0.1:9042", "S2 address")
	relation := fs.String("relation", "default", "relation ID registered on S2")
	joinRelation := fs.String("join-relation", "", "host the join pair under this relation ID")
	knnRelation := fs.String("knn-relation", "", "host the kNN store under this relation ID")
	clientListen := fs.String("client-listen", "", "serve remote queriers on this address (long-running server mode)")
	clusterListen := fs.String("cluster-listen", "", "serve the cluster plane on this address (member mode; implies server mode)")
	clusterNodes := fs.String("cluster-nodes", "", "assemble a cluster front door over these member cluster addresses (comma separated)")
	subset := fs.String("subset", "", "host this shard subset file (relative to -dir) instead of the full relation (cluster member mode)")
	memberID := fs.String("member-id", "", "cluster member identity announced in Hellos and on /readyz")
	probeListen := fs.String("probe-listen", "", "serve /healthz, /readyz (JSON), and /metrics (Prometheus text) on this address")
	pprofListen := fs.String("pprof-listen", "", "serve net/http/pprof profiling endpoints on this address")
	sessionLimit := fs.Int("session-limit", 0, "bound concurrently executing requests; overflow sheds with a typed overloaded error (0 = GOMAXPROCS queueing gate for remote clients)")
	tenantLimits := fs.String("tenant-limits", "", "per-tenant QoS admission budgets: comma list of name=rate[:burst] (requests/s), e.g. 'alice=5:10,bob=1'; unlisted tenants stay unlimited")
	drain := fs.Duration("drain-timeout", 0, "graceful shutdown window: let in-flight queries finish this long before aborting (0 = abort immediately)")
	mode := fs.String("mode", "e", "query mode: f|e|ba (one-shot mode only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	serverMode := *clientListen != "" || *clusterListen != "" || *clusterNodes != ""
	// The top-k relation is required in one-shot mode (it is the query
	// that runs); in server mode an owner may have provisioned only
	// join/knn workloads, so a missing relation file just skips hosting
	// it. A cluster member given -subset hosts that instead of the full
	// relation, and a front door (-cluster-nodes) hosts nothing locally —
	// its relations come from the member fleet.
	var er *sectopk.EncryptedRelation
	if *subset == "" && *clusterNodes == "" {
		var erErr error
		er, erErr = sectopk.LoadEncryptedRelation(filepath.Join(*dir, relationFile))
		if erErr != nil && (!serverMode || !os.IsNotExist(erErr)) {
			return erErr
		}
	}
	var opts []sectopk.Option
	if *memberID != "" {
		opts = append(opts, sectopk.WithMemberID(*memberID))
	}
	if *sessionLimit > 0 {
		opts = append(opts, sectopk.WithSessionLimit(*sessionLimit))
	}
	if *drain > 0 {
		opts = append(opts, sectopk.WithDrainTimeout(*drain))
	}
	if *tenantLimits != "" {
		limits, err := parseTenantLimits(*tenantLimits)
		if err != nil {
			return err
		}
		opts = append(opts, sectopk.WithTenantLimits(limits))
	}
	dc := sectopk.NewDataCloud(opts...)
	defer dc.Close()

	if *pprofListen != "" {
		pl, err := net.Listen("tcp", *pprofListen)
		if err != nil {
			return err
		}
		defer pl.Close()
		startPprof(pl)
		fmt.Printf("pprof on http://%s/debug/pprof/\n", pl.Addr())
	}

	// Probes come up before the S2 dial: /healthz answers as soon as the
	// process lives, /readyz flips only once the handshakes are done and
	// the relations are hosted (and back off again while draining).
	var hosted atomic.Bool
	if *probeListen != "" {
		pl, err := net.Listen("tcp", *probeListen)
		if err != nil {
			return err
		}
		defer pl.Close()
		startProbes(pl, s1Ready(dc, &hosted, *relation))
		fmt.Printf("probes on http://%s/healthz and /readyz\n", pl.Addr())
	}

	// The self-healing transport rides out an S2 that is still starting
	// (or restarts later): dialing backs off under the default policy,
	// and every fresh link re-runs the handshakes before serving rounds.
	if err := dc.Dial(ctx, *connect); err != nil {
		return err
	}
	if *subset != "" {
		sub, err := sectopk.LoadEncryptedRelation(filepath.Join(*dir, *subset))
		if err != nil {
			return err
		}
		if err := dc.HostShards(ctx, *relation, sub); err != nil {
			return err
		}
		fmt.Printf("hosting shard subset %v for relation %s\n", dc.HostedShardSubsets()[*relation], *relation)
	} else if er != nil {
		if err := dc.Host(ctx, *relation, er); err != nil {
			return err
		}
	}
	if *joinRelation != "" {
		jr1, err := sectopk.LoadEncryptedJoinRelation(filepath.Join(*dir, join1File))
		if err != nil {
			return err
		}
		jr2, err := sectopk.LoadEncryptedJoinRelation(filepath.Join(*dir, join2File))
		if err != nil {
			return err
		}
		if err := dc.HostJoin(ctx, *joinRelation, jr1, jr2); err != nil {
			return err
		}
	}
	if *knnRelation != "" {
		ker, err := sectopk.LoadEncryptedKNNRelation(filepath.Join(*dir, knnFile))
		if err != nil {
			return err
		}
		if err := dc.HostKNN(ctx, *knnRelation, ker); err != nil {
			return err
		}
	}
	// Front-door mode: dial the member fleet, assemble the placement, and
	// serve queriers over it. The members must be up and serving their
	// cluster planes before this node starts.
	if *clusterNodes != "" {
		addrs := splitList(*clusterNodes)
		if len(addrs) == 0 {
			return fmt.Errorf("-cluster-nodes lists no addresses")
		}
		if err := dc.HostCluster(ctx, addrs); err != nil {
			return err
		}
		fmt.Printf("front door over %d member(s), cluster relations %v\n", len(addrs), dc.ClusterRelations())
	}
	hosted.Store(len(dc.Hosted()) > 0)

	if serverMode {
		if len(dc.Hosted()) == 0 {
			return fmt.Errorf("nothing to host: no %s and no -subset/-cluster-nodes/-join-relation/-knn-relation given", relationFile)
		}
		// A member serves the cluster plane (which also answers the client
		// wire for its whole-relation workloads); a front door serves
		// queriers. Both listeners may run side by side.
		var (
			serves int
			errc   = make(chan error, 2)
		)
		if *clusterListen != "" {
			l, err := net.Listen("tcp", *clusterListen)
			if err != nil {
				return err
			}
			fmt.Printf("data cloud S1 member %q hosting %v, cluster plane on %s (ctrl-c to stop)\n",
				dc.MemberID(), dc.Hosted(), l.Addr())
			serves++
			go func() { errc <- dc.ServeCluster(ctx, l) }()
		}
		if *clientListen != "" {
			l, err := net.Listen("tcp", *clientListen)
			if err != nil {
				return err
			}
			fmt.Printf("data cloud S1 hosting %v, serving queriers on %s (ctrl-c to stop)\n", dc.Hosted(), l.Addr())
			serves++
			go func() { errc <- dc.ServeClients(ctx, l) }()
		}
		for i := 0; i < serves; i++ {
			if err := <-errc; err != nil && ctx.Err() == nil {
				return err
			}
		}
		return nil
	}

	// One-shot mode: run the stored top-k token in-process.
	tk, err := sectopk.LoadToken(filepath.Join(*dir, tokenFile))
	if err != nil {
		return err
	}
	qmode, err := parseMode(*mode)
	if err != nil {
		return err
	}
	start := time.Now()
	ans, err := dc.Execute(ctx, sectopk.TopKRequest(*relation, tk, sectopk.WithMode(qmode)))
	if err != nil {
		return err
	}
	res, tr := ans.TopK, ans.Traffic
	fmt.Printf("query done: depth=%d halted=%v elapsed=%s rounds=%d bytes=%d\n",
		res.Depth, res.Halted, time.Since(start).Round(time.Millisecond), tr.Rounds, tr.Bytes)
	return res.Save(filepath.Join(*dir, resultFile))
}

// readyStatus is the structured /readyz body. State is "ready" (HTTP
// 200) or "not_ready" (503); Reason explains either way. Epoch is the
// named relation's current epoch (0 when none is hosted); Member and
// Shards identify a cluster member; Members lists a front door's fleet.
type readyStatus struct {
	State   string           `json:"state"`
	Reason  string           `json:"reason"`
	Epoch   uint64           `json:"epoch,omitempty"`
	Member  string           `json:"member,omitempty"`
	Shards  map[string][]int `json:"shards,omitempty"`
	Members []string         `json:"members,omitempty"`
}

// s1Ready is the readiness predicate behind /readyz: the S2 handshakes
// are done (the transport is connected), the relations are hosted, and
// the data cloud is not draining for shutdown. A shard handoff needs no
// state of its own: it swaps under the entry's lock, as Apply does. A
// cluster member reports its identity and assigned shard set; a front
// door verifies every member still answers a cluster Hello before
// claiming ready. A ready top-k relation or member share also reports its
// epoch, so an orchestrator (or a curious owner) can watch deltas and
// handoffs land without issuing a query.
func s1Ready(dc *sectopk.DataCloud, hosted *atomic.Bool, relation string) func() readyStatus {
	return func() readyStatus {
		st := readyStatus{State: "not_ready", Member: dc.MemberID()}
		switch {
		case dc.Draining():
			st.Reason = "draining"
			return st
		case !dc.Connected():
			st.Reason = "not connected to S2"
			return st
		case !hosted.Load():
			st.Reason = "relations not hosted"
			return st
		}
		if subs := dc.HostedShardSubsets(); len(subs) > 0 {
			st.Shards = subs
		}
		if nodes := dc.ClusterNodes(); len(nodes) > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := dc.ClusterReachable(ctx); err != nil {
				st.Reason = fmt.Sprintf("cluster member unreachable: %v", err)
				return st
			}
			sort.Strings(nodes)
			st.Members = nodes
		}
		if epoch, err := dc.Epoch(relation); err == nil {
			st.Epoch = epoch
		}
		st.State = "ready"
		st.Reason = "ready"
		return st
	}
}

// startProbes serves the operational endpoints on the listener until it
// closes: /healthz (liveness: the process is up), /readyz (readiness as
// a structured JSON body; HTTP 200 when ready, 503 otherwise), and
// /metrics (the process-wide telemetry registry in Prometheus text
// exposition format).
func startProbes(l net.Listener, ready func() readyStatus) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		st := ready()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if st.State != "ready" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.Encode(st)
	})
	mux.Handle("/metrics", telemetry.Default().Handler())
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
}

// startPprof serves the net/http/pprof profiling endpoints on the
// listener until it closes (on its own mux, so the probe plane never
// exposes profiling by accident).
func startPprof(l net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
}
