package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/sectopk"
)

// The cluster experiment is the one multi-process measurement: queries
// per second through a sectopk-node fleet already running elsewhere (S2,
// member processes, and a front door over real TCP), as a function of
// the member count. This process only plays the queriers. Everything a
// single process can measure lives in benchmark/.

// QPSResult is one measured fleet. GoMaxProcs and KeyBits repeat per row
// because rows measured by separate runs are appended into one record —
// each row must stay interpretable on its own.
type QPSResult struct {
	Shards     int     `json:"shards"`
	Clients    int     `json:"clients"`
	Nodes      int     `json:"nodes"` // S1 member processes behind the front door
	Queries    int     `json:"queries"`
	Seconds    float64 `json:"seconds"`
	QPS        float64 `json:"qps"`
	P50Ms      float64 `json:"p50_ms"` // median per-query latency
	P99Ms      float64 `json:"p99_ms"` // tail per-query latency
	GoMaxProcs int     `json:"gomaxprocs"`
	KeyBits    int     `json:"key_bits"`
}

// QPSReport is the machine-readable record AppendJSON keeps under the
// "cluster" key.
type QPSReport struct {
	Date       string      `json:"date"`
	KeyBits    int         `json:"key_bits"`
	GoMaxProcs int         `json:"gomaxprocs"`
	K          int         `json:"k"`
	Results    []QPSResult `json:"results"`
}

// ClusterConfig describes the running fleet and the querier load.
type ClusterConfig struct {
	Connect          string // front door client-listen address
	Nodes            int    // S1 member count behind the front door, recorded per row
	Shards           int    // provisioned shard count, recorded per row
	Relation         string // hosted relation ID
	TokenPath        string // stored top-k trapdoor (sectopk-node owner's query.tk)
	KeyBits          int    // recorded per row
	Clients          int    // concurrent queriers (0 picks 8)
	QueriesPerClient int    // timed queries per querier (0 picks 4)
}

// checkTopK refuses an answer that is not a k-item top-k result. The
// driver holds no owner keys, so shape is what it can check — enough to
// keep a front door that returns an empty or short answer from posting
// a throughput row.
func checkTopK(ans *sectopk.Answer, k int) error {
	if ans == nil || ans.TopK == nil {
		return fmt.Errorf("bench: cluster: reply carries no top-k result")
	}
	if got := ans.TopK.Len(); got != k {
		return fmt.Errorf("bench: cluster: top-k reply has %d items, want %d", got, k)
	}
	return nil
}

// RunQPSCluster measures one throughput row against a running front
// door: Clients concurrent queriers, each on its own TCP connection,
// each running one warm-up query and then QueriesPerClient timed ones.
// Every reply, warm-up included, must pass checkTopK or the row fails.
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
		return nil, fmt.Errorf("bench: cluster token: %w", err)
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
			return nil, fmt.Errorf("bench: cluster dial %s: %w", cfg.Connect, err)
		}
		conns[i] = c
	}
	req := sectopk.TopKRequest(cfg.Relation, tk)
	query := func(c *sectopk.Client) error {
		ans, err := c.Execute(ctx, req)
		if err != nil {
			return err
		}
		return checkTopK(ans, tk.K())
	}
	// fleet runs n queries on every connection at once and returns the
	// per-connection latencies, or the first error any of them hit.
	fleet := func(n int) ([][]time.Duration, error) {
		var wg sync.WaitGroup
		durs := make([][]time.Duration, clients)
		errs := make([]error, clients)
		for i := range conns {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for q := 0; q < n; q++ {
					t0 := time.Now()
					if errs[i] = query(conns[i]); errs[i] != nil {
						return
					}
					durs[i] = append(durs[i], time.Since(t0))
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return durs, nil
	}
	// One warm-up query per client (nonce pools, TCP, first-touch code
	// paths), excluded from the timing: with only a handful of timed
	// queries per client, letting one client eat all the setup cost
	// skews the sample.
	if _, err := fleet(1); err != nil {
		return nil, fmt.Errorf("bench: cluster warm-up: %w", err)
	}
	start := time.Now()
	durs, err := fleet(perClient)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	all := flattenDurations(durs)
	total := clients * perClient
	return &QPSReport{
		Date:       time.Now().Format("2006-01-02"),
		KeyBits:    cfg.KeyBits,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		K:          tk.K(),
		Results: []QPSResult{{
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
		}},
	}, nil
}

// AppendJSON puts the rows already under the "cluster" key of path in
// front of this report's and saves the result there, so the 1-node and
// 2-node runs of one fleet comparison land in one record (and the later
// run's table shows the ratio); the per-row gomaxprocs/key_bits fields
// keep rows from separate runs interpretable.
func (r *QPSReport) AppendJSON(path string) error {
	doc, err := readRecord(path)
	if err != nil {
		return err
	}
	if raw, ok := doc["cluster"]; ok {
		var prev QPSReport
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("bench: %s: cluster record: %w", path, err)
		}
		r.Results = append(prev.Results, r.Results...)
	}
	return saveUnder(path, "cluster", r)
}

// Report renders the fleet rows with each one's speedup over the 1-node
// row at the same client count (same wire path, scaled fleet).
func (r *QPSReport) Report() *Report {
	base := map[int]float64{} // clients -> 1-node QPS
	for _, res := range r.Results {
		if res.Nodes == 1 {
			base[res.Clients] = res.QPS
		}
	}
	out := &Report{
		ID:     "cluster",
		Title:  fmt.Sprintf("fleet throughput vs member count (%d-bit keys, k=%d, GOMAXPROCS=%d)", r.KeyBits, r.K, r.GoMaxProcs),
		Header: []string{"nodes", "shards", "clients", "queries", "qps", "p50 ms", "p99 ms", "vs 1 node"},
	}
	for _, res := range r.Results {
		vs := "-"
		if b := base[res.Clients]; b > 0 && res.Nodes > 1 {
			vs = fmt.Sprintf("%.2fx", res.QPS/b)
		}
		out.Rows = append(out.Rows, []string{
			fmt.Sprint(res.Nodes),
			fmt.Sprint(res.Shards),
			fmt.Sprint(res.Clients),
			fmt.Sprint(res.Queries),
			fmt.Sprintf("%.2f", res.QPS),
			fmt.Sprintf("%.1f", res.P50Ms),
			fmt.Sprintf("%.1f", res.P99Ms),
			vs,
		})
	}
	out.Notes = append(out.Notes,
		"acceptance target on a 4-core runner: 2-node fleet >= 1.6x 1-node at 8 clients")
	return out
}
