package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ehl"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/sectopk"
)

// The qps experiment measures the throughput-first data plane end to
// end: queries per second over real TCP (the multiplexed link under the
// batch scheduler, as the facade deploys it) as a function of the number
// of concurrent client sessions and the shard count. The baseline is the
// unsharded relation at the same client count.

// QPSResult is one measured scenario. GoMaxProcs and KeyBits repeat per
// row (not just in the report header) because cluster rows measured in a
// separate process get merged into an existing BENCH_<date>.json — each
// row must stay interpretable on its own.
type QPSResult struct {
	Transport  string  `json:"transport"` // "mux-batch-v2" or "cluster-v2"
	Shards     int     `json:"shards"`
	Clients    int     `json:"clients"`
	Nodes      int     `json:"nodes,omitempty"` // S1 member processes behind the front door (cluster rows)
	Queries    int     `json:"queries"`
	Seconds    float64 `json:"seconds"`
	QPS        float64 `json:"qps"`
	P50Ms      float64 `json:"p50_ms,omitempty"` // median per-query latency
	P99Ms      float64 `json:"p99_ms,omitempty"` // tail per-query latency
	GoMaxProcs int     `json:"gomaxprocs"`
	KeyBits    int     `json:"key_bits"`
}

// QPSReport is the machine-readable record merged into BENCH_<date>.json.
type QPSReport struct {
	Date       string      `json:"date"`
	KeyBits    int         `json:"key_bits"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Rows       int         `json:"rows"`
	K          int         `json:"k"`
	Results    []QPSResult `json:"results"`
}

// qpsRelation builds a rank-correlated relation so queries halt after a
// few depths — the workload is then round-trip- and S2-throughput-bound,
// which is exactly what the data plane changes target.
func qpsRelation(rows int) *dataset.Relation {
	rel := &dataset.Relation{Name: "qps"}
	n := int64(rows)
	for i := int64(0); i < n; i++ {
		rel.Rows = append(rel.Rows, []int64{3*n - 3*i, 2*n - 2*i + 1, n - i + 2})
	}
	return rel
}

// queryEngine is the slice of the two engines the scenario driver needs.
type queryEngine interface {
	SecQuery(ctx context.Context, tk *core.Token, opts core.Options) (*core.QueryResult, error)
}

// RunQPS measures the scenario matrix and returns the report.
func RunQPS(cfg Config) (*QPSReport, error) {
	rows := cfg.Rows
	if rows <= 0 {
		rows = DefaultConfig().Rows
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 4
	}
	if shards > rows {
		shards = rows
	}
	clients := cfg.Clients
	if clients <= 0 {
		clients = 8
	}
	const k = 3
	params := core.Params{
		KeyBits:      cfg.KeyBits,
		EHL:          ehl.Params{Kind: ehl.KindPlus, S: cfg.EHLS},
		MaxScoreBits: cfg.MaxScoreBits,
		Parallelism:  cfg.Parallelism,
	}
	scheme, err := core.NewScheme(params)
	if err != nil {
		return nil, fmt.Errorf("bench: qps scheme: %w", err)
	}
	rel := qpsRelation(rows)
	er, err := scheme.EncryptRelation(rel)
	if err != nil {
		return nil, err
	}
	shRel, err := shard.Encrypt(scheme, rel, shards)
	if err != nil {
		return nil, err
	}
	tk, err := scheme.TokenFor(rows, rel.M(), []int{0, 1, 2}, nil, k)
	if err != nil {
		return nil, err
	}
	svc := cloud.NewService()
	defer svc.Close()
	if err := svc.Register("qps", scheme.KeyMaterial(), nil, cloud.WithParallelism(cfg.Parallelism)); err != nil {
		return nil, err
	}

	rep := &QPSReport{
		Date:       time.Now().Format("2006-01-02"),
		KeyBits:    cfg.KeyBits,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Rows:       rows,
		K:          k,
	}
	scenarios := []struct {
		shards  int
		clients int
	}{
		{1, 1},
		{1, clients}, // multiplexing + batching
		{shards, clients},
	}
	perClient := cfg.QueriesPerClient
	if perClient <= 0 {
		perClient = 4
	}
	for _, sc := range scenarios {
		res, err := runQPSScenario(svc, scheme, er, shRel, tk, sc.shards, sc.clients, perClient)
		if err != nil {
			return nil, fmt.Errorf("bench: qps %+v: %w", sc, err)
		}
		res.KeyBits = cfg.KeyBits
		rep.Results = append(rep.Results, *res)
	}
	return rep, nil
}

// runQPSScenario measures one (shards, clients) cell over a real TCP
// loopback connection; each client runs perClient timed
// queries after a shared warm-up.
func runQPSScenario(svc *cloud.Service, scheme *core.Scheme, er *core.EncryptedRelation, shRel *shard.Relation, tk *core.Token, shards, clients, perClient int) (*QPSResult, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = transport.Serve(ctx, l, svc) }()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	cc, err := transport.Connect(ctx, conn, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	defer cc.Close()
	batcher := cloud.NewBatcher(cc)
	defer batcher.Close()
	client, err := cloud.NewClient(batcher, scheme.PublicKey(), nil, cloud.WithRelation("qps"))
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if err := client.Handshake(ctx); err != nil {
		return nil, err
	}

	engines := make([]queryEngine, clients)
	for i := range engines {
		if shards > 1 {
			eng, err := shard.NewEngine(client, shRel)
			if err != nil {
				return nil, err
			}
			engines[i] = eng
		} else {
			eng, err := core.NewEngine(client, er)
			if err != nil {
				return nil, err
			}
			engines[i] = eng
		}
	}
	opts := core.Options{Mode: core.QryE, Halt: core.HaltPaper}
	total := clients * perClient
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// One warm-up query per client (nonce pools, TCP, first-touch code
	// paths), excluded from the timing: with only a handful of timed
	// queries per client, letting one client eat all the setup cost
	// skews the sample.
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := engines[i].SecQuery(ctx, tk, opts); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	durs := make([][]time.Duration, clients)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			durs[i] = make([]time.Duration, 0, perClient)
			for q := 0; q < perClient; q++ {
				t0 := time.Now()
				if _, err := engines[i].SecQuery(ctx, tk, opts); err != nil {
					fail(err)
					return
				}
				durs[i] = append(durs[i], time.Since(t0))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	all := flattenDurations(durs)
	return &QPSResult{
		Transport:  "mux-batch-v2",
		Shards:     shards,
		Clients:    clients,
		Queries:    total,
		Seconds:    elapsed.Seconds(),
		QPS:        float64(total) / elapsed.Seconds(),
		P50Ms:      percentileMs(all, 0.50),
		P99Ms:      percentileMs(all, 0.99),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}, nil
}

// ClusterConfig drives the external-cluster qps rows: the measured
// system is a sectopk-node fleet already running elsewhere (S2, member
// processes, and a front door over real TCP); this process only plays
// the queriers.
type ClusterConfig struct {
	Connect          string // front door client-listen address
	Nodes            int    // S1 member count behind the front door, recorded per row
	Shards           int    // provisioned shard count, recorded per row
	Relation         string // hosted relation ID
	TokenPath        string // stored top-k trapdoor (sectopk-node owner's query.tk)
	KeyBits          int    // recorded per row
	Clients          int
	QueriesPerClient int
}

// RunQPSCluster measures one cluster throughput row against a running
// front door: Clients concurrent queriers, each on its own TCP
// connection, each running one warm-up query and then QueriesPerClient
// timed ones. Merge the row into an existing record with AppendJSON.
func RunQPSCluster(cfg ClusterConfig) (*QPSReport, error) {
	clients := cfg.Clients
	if clients <= 0 {
		clients = 8
	}
	perClient := cfg.QueriesPerClient
	if perClient <= 0 {
		perClient = 4
	}
	tk, err := sectopk.LoadToken(cfg.TokenPath)
	if err != nil {
		return nil, fmt.Errorf("bench: qps cluster token: %w", err)
	}
	ctx := context.Background()
	conns := make([]*sectopk.Client, clients)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		c, err := sectopk.DialRetry(ctx, cfg.Connect, sectopk.WithRetry(sectopk.RetryPolicy{
			Initial:    50 * time.Millisecond,
			Max:        time.Second,
			MaxElapsed: 15 * time.Second,
		}))
		if err != nil {
			return nil, fmt.Errorf("bench: qps cluster dial %s: %w", cfg.Connect, err)
		}
		conns[i] = c
	}
	req := sectopk.TopKRequest(cfg.Relation, tk)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// One warm-up query per client, as in the in-process scenarios.
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := conns[i].Execute(ctx, req); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("bench: qps cluster warm-up: %w", firstErr)
	}
	total := clients * perClient
	durs := make([][]time.Duration, clients)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			durs[i] = make([]time.Duration, 0, perClient)
			for q := 0; q < perClient; q++ {
				t0 := time.Now()
				if _, err := conns[i].Execute(ctx, req); err != nil {
					fail(err)
					return
				}
				durs[i] = append(durs[i], time.Since(t0))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	all := flattenDurations(durs)
	rep := &QPSReport{
		Date:       time.Now().Format("2006-01-02"),
		KeyBits:    cfg.KeyBits,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	rep.Results = append(rep.Results, QPSResult{
		Transport:  "cluster-v2",
		Shards:     cfg.Shards,
		Clients:    clients,
		Nodes:      cfg.Nodes,
		Queries:    total,
		Seconds:    elapsed.Seconds(),
		QPS:        float64(total) / elapsed.Seconds(),
		P50Ms:      percentileMs(all, 0.50),
		P99Ms:      percentileMs(all, 0.99),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		KeyBits:    cfg.KeyBits,
	})
	return rep, nil
}

// SaveJSON merges the QPS record into path (BENCH_<date>.json when
// empty): an existing record — e.g. the micro experiment's — keeps its
// fields and gains/overwrites the "qps" key, so one file per date tracks
// both trajectories.
func (r *QPSReport) SaveJSON(path string) (string, error) {
	return r.writeJSON(path, r)
}

// AppendJSON merges this report's rows into an existing qps record in
// path instead of replacing it: the in-process scenario matrix keeps
// its rows and gains the rows measured by this (separate) process —
// the per-row gomaxprocs/key_bits fields keep mixed origins
// interpretable. With no prior qps record it behaves like SaveJSON.
func (r *QPSReport) AppendJSON(path string) (string, error) {
	merged := r
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", r.Date)
	}
	doc := map[string]any{}
	if b, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(b, &doc)
	}
	if raw, ok := doc["qps"]; ok {
		if b, err := json.Marshal(raw); err == nil {
			prev := &QPSReport{}
			if json.Unmarshal(b, prev) == nil && len(prev.Results) > 0 {
				prev.Results = append(prev.Results, r.Results...)
				merged = prev
			}
		}
	}
	return r.writeJSON(path, merged)
}

// writeJSON installs rep under the "qps" key of the dated record.
func (r *QPSReport) writeJSON(path string, rep *QPSReport) (string, error) {
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", r.Date)
	}
	doc := map[string]any{}
	if b, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(b, &doc)
	}
	doc["qps"] = rep
	if _, ok := doc["date"]; !ok {
		doc["date"] = r.Date
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Report renders the scenario table with the speedup over the unsharded
// row at the same client count; cluster rows compare against the 1-node
// cluster row instead (same wire path, scaled fleet).
func (r *QPSReport) Report() *Report {
	base := map[int]float64{}        // clients -> unsharded QPS
	clusterBase := map[int]float64{} // clients -> 1-node cluster QPS
	for _, res := range r.Results {
		if res.Nodes == 0 && res.Shards == 1 {
			base[res.Clients] = res.QPS
		}
		if res.Nodes == 1 {
			clusterBase[res.Clients] = res.QPS
		}
	}
	out := &Report{
		ID:     "qps",
		Title:  fmt.Sprintf("query throughput vs transport/shards/clients (%d-bit keys, %d rows, GOMAXPROCS=%d)", r.KeyBits, r.Rows, r.GoMaxProcs),
		Header: []string{"transport", "shards", "nodes", "clients", "queries", "qps", "p50 ms", "p99 ms", "vs baseline"},
	}
	for _, res := range r.Results {
		vs := "-"
		switch {
		case res.Nodes > 1:
			if b, ok := clusterBase[res.Clients]; ok && b > 0 {
				vs = fmt.Sprintf("%.2fx", res.QPS/b)
			}
		case res.Nodes == 0:
			if b, ok := base[res.Clients]; ok && b > 0 && res.Shards > 1 {
				vs = fmt.Sprintf("%.2fx", res.QPS/b)
			}
		}
		nodes := "-"
		if res.Nodes > 0 {
			nodes = fmt.Sprint(res.Nodes)
		}
		out.Rows = append(out.Rows, []string{
			res.Transport,
			fmt.Sprint(res.Shards),
			nodes,
			fmt.Sprint(res.Clients),
			fmt.Sprint(res.Queries),
			fmt.Sprintf("%.2f", res.QPS),
			fmt.Sprintf("%.1f", res.P50Ms),
			fmt.Sprintf("%.1f", res.P99Ms),
			vs,
		})
	}
	out.Notes = append(out.Notes,
		"baseline = unsharded relation, same client count; cluster rows compare against the 1-node cluster row",
		"acceptance target on a 4-core runner: 2-node cluster >= 1.6x 1-node at 8 clients",
		fmt.Sprintf("emitted into BENCH_%s.json under the \"qps\" key", r.Date))
	return out
}
