package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/secerr"
	"repro/sectopk"
)

// The soak experiment exercises the serving plane: many concurrent
// clients — mixed tenants, mixed workloads — hammer one data cloud's
// client port over real TCP for a fixed wall-clock budget. It publishes
// the numbers the QoS admission layer is judged by: tail latency
// (p50/p90/p99/max), shed rate, and an error-code histogram. A healthy
// run sheds only with typed overload/deadline errors; anything else in
// the histogram is a serving-plane bug, which is what the CI smoke gates
// on.

// SoakTenant describes one tenant's slice of the client fleet: how many
// concurrent clients it runs and the admission rate the serving node
// grants it (PerSecond 0 = unlimited).
type SoakTenant struct {
	Name      string  `json:"tenant"`
	PerSecond float64 `json:"per_second,omitempty"` // admission rate (0 = unlimited)
	Burst     int     `json:"burst,omitempty"`
	Clients   int     `json:"clients"`
}

// SoakConfig drives one soak run. The embedded Config supplies the
// crypto knobs; Tenants splits the fleet (nil = DefaultSoakTenants over
// Clients).
type SoakConfig struct {
	Config
	Clients      int           // total concurrent clients when Tenants is nil (0 picks 200)
	Duration     time.Duration // wall-clock budget (default 8s)
	SessionLimit int           // WithSessionLimit on the serving node (0 = node default)
	Tenants      []SoakTenant
}

// DefaultSoakTenants is the two-tenant split used when SoakConfig.Tenants
// is nil: "gold" runs unlimited with two thirds of the fleet, "bronze"
// gets the rest behind a deliberately tight rate so the run demonstrates
// per-tenant shedding without starving the unlimited tenant.
func DefaultSoakTenants(clients int) []SoakTenant {
	if clients < 2 {
		clients = 2
	}
	gold := (clients*2 + 2) / 3
	return []SoakTenant{
		{Name: "gold", Clients: gold},
		{Name: "bronze", PerSecond: 2, Burst: 2, Clients: clients - gold},
	}
}

// SoakResult is one tenant's measured slice of the run.
type SoakResult struct {
	Tenant    string         `json:"tenant"`
	Limit     float64        `json:"limit_per_second,omitempty"`
	Clients   int            `json:"clients"`
	Workloads []string       `json:"workloads"`
	Attempts  int            `json:"attempts"`
	OK        int            `json:"ok"`
	Shed      int            `json:"shed"`
	ShedRate  float64        `json:"shed_rate"`
	Errors    map[string]int `json:"errors,omitempty"` // non-shed failures by code
	QPS       float64        `json:"qps"`              // completed queries per second
	P50Ms     float64        `json:"p50_ms"`
	P90Ms     float64        `json:"p90_ms"`
	P99Ms     float64        `json:"p99_ms"`
	MaxMs     float64        `json:"max_ms"`
}

// SoakReport is the machine-readable record SaveJSON keeps under the
// "soak" key. The top-level fields aggregate across tenants;
// Results keeps the per-tenant split.
type SoakReport struct {
	Date       string         `json:"date"`
	KeyBits    int            `json:"key_bits"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Rows       int            `json:"rows"`
	K          int            `json:"k"`
	Seconds    float64        `json:"seconds"`
	Clients    int            `json:"clients"`
	Attempts   int            `json:"attempts"`
	OK         int            `json:"ok"`
	Shed       int            `json:"shed"`
	ShedRate   float64        `json:"shed_rate"`
	Errors     map[string]int `json:"errors,omitempty"`
	P50Ms      float64        `json:"p50_ms"`
	P90Ms      float64        `json:"p90_ms"`
	P99Ms      float64        `json:"p99_ms"`
	MaxMs      float64        `json:"max_ms"`
	Results    []SoakResult   `json:"results"`
}

// soakRelation builds a rank-correlated relation so top-k queries halt
// after a few depths — the run is then bound by round trips, S2
// throughput and admission, which is what the serving plane is judged on.
func soakRelation(rows int) *sectopk.Relation {
	rel := &sectopk.Relation{Name: "soak"}
	n := int64(rows)
	for i := int64(0); i < n; i++ {
		rel.Rows = append(rel.Rows, []int64{3*n - 3*i, 2*n - 2*i + 1, n - i + 2})
	}
	return rel
}

// soakWorker is one concurrent client's tally, merged per tenant after
// the run.
type soakWorker struct {
	tenant   string
	workload string
	client   *sectopk.Client
	req      sectopk.Request
	durs     []time.Duration
	shed     int
	errs     map[string]int
}

// RunSoak stands up the full serving stack — owner, crypto cloud, one
// data cloud with per-tenant limits, client port on TCP loopback — and
// soaks it with the configured tenant fleet for the wall-clock budget.
// Each client alternates between the top-k and kNN workloads by fleet
// position.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	rows := cfg.Rows
	if rows <= 0 {
		rows = DefaultConfig().Rows
	}
	const k = 3
	duration := cfg.Duration
	if duration <= 0 {
		duration = 8 * time.Second
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		clients := cfg.Clients
		if clients <= 0 {
			clients = 200
		}
		tenants = DefaultSoakTenants(clients)
	}
	totalClients := 0
	for _, t := range tenants {
		totalClients += t.Clients
	}
	if totalClients == 0 {
		return nil, fmt.Errorf("bench: soak: no clients configured")
	}

	cryptoOpts := []sectopk.Option{
		sectopk.WithKeyBits(cfg.KeyBits),
		sectopk.WithMaxScoreBits(cfg.MaxScoreBits),
	}
	owner, err := sectopk.NewOwner(cryptoOpts...)
	if err != nil {
		return nil, fmt.Errorf("bench: soak owner: %w", err)
	}
	rel := soakRelation(rows)
	er, err := owner.Encrypt(rel)
	if err != nil {
		return nil, err
	}
	ker, err := owner.EncryptKNN(rel)
	if err != nil {
		return nil, err
	}
	tk, err := owner.Token(er, sectopk.Query{Attrs: []int{0, 1, 2}, K: k})
	if err != nil {
		return nil, err
	}
	ktk, err := owner.KNNToken(ker, sectopk.KNNQuery{Point: append([]int64(nil), rel.Rows[0]...), K: k})
	if err != nil {
		return nil, err
	}

	cc := sectopk.NewCryptoCloud(cryptoOpts...)
	defer cc.Close()
	if err := cc.Register("soak", owner.Keys()); err != nil {
		return nil, err
	}
	if err := cc.Register("soak-knn", owner.Keys()); err != nil {
		return nil, err
	}

	limits := map[string]sectopk.Rate{}
	for _, t := range tenants {
		if t.PerSecond > 0 {
			limits[t.Name] = sectopk.Rate{PerSecond: t.PerSecond, Burst: t.Burst}
		}
	}
	nodeOpts := append([]sectopk.Option{}, cryptoOpts...)
	nodeOpts = append(nodeOpts, sectopk.WithTenantLimits(limits))
	if cfg.SessionLimit > 0 {
		nodeOpts = append(nodeOpts, sectopk.WithSessionLimit(cfg.SessionLimit))
	}
	dc := sectopk.NewDataCloud(nodeOpts...)
	defer dc.Close()
	ctx := context.Background()
	if err := dc.ConnectLocal(ctx, cc); err != nil {
		return nil, err
	}
	if err := dc.Host(ctx, "soak", er); err != nil {
		return nil, err
	}
	if err := dc.HostKNN(ctx, "soak-knn", ker); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveCtx, stopServe := context.WithCancel(ctx)
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = dc.ServeClients(serveCtx, l) }()
	defer func() { stopServe(); <-serveDone }()

	// Dial the fleet: every client its own TCP connection carrying its
	// tenant in its Hello. One attempt per Execute — a retrying client
	// would hide the sheds this experiment exists to measure.
	workers := make([]*soakWorker, 0, totalClients)
	defer func() {
		for _, w := range workers {
			w.client.Close()
		}
	}()
	pos := 0
	for _, t := range tenants {
		for i := 0; i < t.Clients; i++ {
			c, err := sectopk.Dial(ctx, l.Addr().String(), sectopk.WithTenant(t.Name),
				sectopk.WithRetry(sectopk.RetryPolicy{MaxAttempts: -1}))
			if err != nil {
				return nil, fmt.Errorf("bench: soak dial (tenant %s): %w", t.Name, err)
			}
			w := &soakWorker{tenant: t.Name, client: c, errs: map[string]int{}}
			if pos%2 == 0 {
				w.workload, w.req = "topk", sectopk.TopKRequest("soak", tk)
			} else {
				w.workload, w.req = "knn", sectopk.KNNRequest("soak-knn", ktk)
			}
			workers = append(workers, w)
			pos++
		}
	}

	// Warm-up: one query per client outside the timed window (nonce
	// pools, first-touch code paths). Errors are expected for limited
	// tenants — their buckets start near empty — and ignored.
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *soakWorker) {
			defer wg.Done()
			_, _ = w.client.Execute(ctx, w.req)
		}(w)
	}
	wg.Wait()

	start := time.Now()
	deadline := start.Add(duration)
	for _, w := range workers {
		wg.Add(1)
		go func(w *soakWorker) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				_, err := w.client.Execute(ctx, w.req)
				switch {
				case err == nil:
					w.durs = append(w.durs, time.Since(t0))
				case errors.Is(err, sectopk.ErrOverloaded) || errors.Is(err, context.DeadlineExceeded):
					w.shed++
					// A throttled tenant must not busy-spin the admission
					// gate; the pause approximates client-side backoff.
					time.Sleep(5 * time.Millisecond)
				default:
					code := string(secerr.CodeOf(err))
					if code == "" {
						code = "unknown"
					}
					w.errs[code]++
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &SoakReport{
		Date:       time.Now().Format("2006-01-02"),
		KeyBits:    cfg.KeyBits,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Rows:       rows,
		K:          k,
		Seconds:    elapsed.Seconds(),
		Clients:    totalClients,
		Errors:     map[string]int{},
	}
	var allDurs []time.Duration
	for _, t := range tenants {
		res := SoakResult{Tenant: t.Name, Limit: t.PerSecond, Clients: t.Clients, Errors: map[string]int{}}
		seen := map[string]bool{}
		var durs []time.Duration
		for _, w := range workers {
			if w.tenant != t.Name {
				continue
			}
			if !seen[w.workload] {
				seen[w.workload] = true
				res.Workloads = append(res.Workloads, w.workload)
			}
			durs = append(durs, w.durs...)
			res.OK += len(w.durs)
			res.Shed += w.shed
			for code, n := range w.errs {
				res.Errors[code] += n
			}
		}
		sort.Strings(res.Workloads)
		errCount := 0
		for code, n := range res.Errors {
			errCount += n
			rep.Errors[code] += n
		}
		res.Attempts = res.OK + res.Shed + errCount
		if res.Attempts > 0 {
			res.ShedRate = float64(res.Shed) / float64(res.Attempts)
		}
		res.QPS = float64(res.OK) / elapsed.Seconds()
		res.P50Ms = percentileMs(durs, 0.50)
		res.P90Ms = percentileMs(durs, 0.90)
		res.P99Ms = percentileMs(durs, 0.99)
		res.MaxMs = percentileMs(durs, 1)
		if len(res.Errors) == 0 {
			res.Errors = nil
		}
		allDurs = append(allDurs, durs...)
		rep.OK += res.OK
		rep.Shed += res.Shed
		rep.Results = append(rep.Results, res)
	}
	for _, n := range rep.Errors {
		rep.Attempts += n
	}
	rep.Attempts += rep.OK + rep.Shed
	if rep.Attempts > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Attempts)
	}
	rep.P50Ms = percentileMs(allDurs, 0.50)
	rep.P90Ms = percentileMs(allDurs, 0.90)
	rep.P99Ms = percentileMs(allDurs, 0.99)
	rep.MaxMs = percentileMs(allDurs, 1)
	if len(rep.Errors) == 0 {
		rep.Errors = nil
	}
	return rep, nil
}

// Clean reports whether the run shed only with typed overload/deadline
// errors — the invariant the CI soak smoke gates on. Sheds themselves
// are expected (that is the admission layer working); anything in the
// error histogram is not.
func (r *SoakReport) Clean() bool {
	return len(r.Errors) == 0
}

// SaveJSON installs the soak record under the "soak" key of path; other
// keys in that record are preserved.
func (r *SoakReport) SaveJSON(path string) error {
	return saveUnder(path, "soak", r)
}

// Report renders the per-tenant table plus the aggregate row.
func (r *SoakReport) Report() *Report {
	out := &Report{
		ID: "soak",
		Title: fmt.Sprintf("serving-plane soak: %d clients for %.1fs (%d-bit keys, %d rows, GOMAXPROCS=%d)",
			r.Clients, r.Seconds, r.KeyBits, r.Rows, r.GoMaxProcs),
		Header: []string{"tenant", "limit/s", "clients", "workloads", "attempts", "ok", "shed", "shed rate", "qps", "p50 ms", "p90 ms", "p99 ms", "max ms"},
	}
	row := func(name, limit string, clients int, workloads []string, attempts, ok, shed int, shedRate, qps, p50, p90, p99, max float64) {
		wl := "-"
		if len(workloads) > 0 {
			wl = ""
			for i, w := range workloads {
				if i > 0 {
					wl += "+"
				}
				wl += w
			}
		}
		out.Rows = append(out.Rows, []string{
			name, limit, fmt.Sprint(clients), wl,
			fmt.Sprint(attempts), fmt.Sprint(ok), fmt.Sprint(shed),
			fmt.Sprintf("%.1f%%", 100*shedRate),
			fmt.Sprintf("%.2f", qps),
			fmt.Sprintf("%.1f", p50), fmt.Sprintf("%.1f", p90),
			fmt.Sprintf("%.1f", p99), fmt.Sprintf("%.1f", max),
		})
	}
	for _, res := range r.Results {
		limit := "-"
		if res.Limit > 0 {
			limit = fmt.Sprintf("%.1f", res.Limit)
		}
		row(res.Tenant, limit, res.Clients, res.Workloads,
			res.Attempts, res.OK, res.Shed, res.ShedRate, res.QPS,
			res.P50Ms, res.P90Ms, res.P99Ms, res.MaxMs)
	}
	row("(all)", "", r.Clients, nil, r.Attempts, r.OK, r.Shed, r.ShedRate,
		float64(r.OK)/r.Seconds, r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs)
	if r.Clean() {
		out.Notes = append(out.Notes, "clean run: every failed request shed with a typed overload/deadline error")
	} else {
		out.Notes = append(out.Notes, fmt.Sprintf("NON-TYPED ERRORS observed: %v", r.Errors))
	}
	out.Notes = append(out.Notes, "sheds are the admission layer working; the error histogram must stay empty")
	return out
}

// flattenDurations merges the per-client latency samples into one slice.
func flattenDurations(per [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, ds := range per {
		all = append(all, ds...)
	}
	return all
}

// percentileMs returns the q-quantile (0 < q <= 1) of the sample in
// milliseconds, nearest-rank over a sorted copy; 0 on an empty sample.
func percentileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / float64(time.Millisecond)
}
