// Package telemetry is the serving plane's observation layer: a
// dependency-free metrics registry (counters, gauges, histograms with
// fixed latency buckets) rendered in the Prometheus text exposition
// format, plus the trace-hook types every instrumented layer emits —
// per-frame events from the transport mux and per-query span records
// from the data cloud's unified execute path.
//
// The package sits below every other internal package (it imports only
// the standard library), so transport, cloud, shard, cluster, qos, and
// the sectopk facade can all record into the process-global default
// registry without dependency injection or import cycles. Instrument
// lookups are cheap (one mutex-guarded map hit) relative to the
// crypto-bound work they bracket.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the fixed histogram bucket layout (seconds) shared
// by every latency histogram: half a millisecond up to ten seconds,
// roughly logarithmic. Fixed buckets keep scrapes from different
// processes directly aggregatable.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing value.
type Counter struct{ n atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d (negative deltas are ignored: counters only go up).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.n.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets. All
// methods are safe for concurrent use.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, the last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-updated
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts
// by linear interpolation inside the selected bucket; the top bucket
// reports its lower bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if seen+n >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				return lo // open-ended bucket: report its floor
			}
			return lo + (h.bounds[i]-lo)*(rank-seen)/n
		}
		seen += n
	}
	return h.bounds[len(h.bounds)-1]
}

// metric is one labeled instrument inside a family.
type metric struct {
	labels []string // k1, v1, k2, v2, ...
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every label combination of one metric name.
type family struct {
	name    string
	kind    string // "counter", "gauge", "histogram"
	bounds  []float64
	metrics map[string]*metric // keyed by the serialized label set
}

// Registry holds metric families. The zero value is not usable; build
// with NewRegistry or use the process-global Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry every instrumented layer
// records into.
func Default() *Registry { return defaultRegistry }

// NoncePoolDraws returns the default registry's counters of nonce-pool
// draws, sectopk_nonce_pool_draws_total{result}: hit where the pool's
// buffer served the draw, miss where it was drained (or closed) and the
// nonce was computed inline. Their ratio says whether the pools are sized
// for what a query draws.
func NoncePoolDraws() (hit, miss *Counter) {
	return defaultRegistry.Counter("sectopk_nonce_pool_draws_total", "result", "hit"),
		defaultRegistry.Counter("sectopk_nonce_pool_draws_total", "result", "miss")
}

// labelKey serializes a label set for map lookup; labels are k, v pairs.
func labelKey(labels []string) string {
	return strings.Join(labels, "\x1f")
}

func (r *Registry) lookup(name, kind string, bounds []float64, labels []string) *metric {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: %s: odd label list %q", name, labels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, bounds: bounds, metrics: map[string]*metric{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	key := labelKey(labels)
	m := f.metrics[key]
	if m == nil {
		m = &metric{labels: append([]string(nil), labels...)}
		switch kind {
		case "counter":
			m.c = &Counter{}
		case "gauge":
			m.g = &Gauge{}
		case "histogram":
			m.h = newHistogram(f.bounds)
		}
		f.metrics[key] = m
	}
	return m
}

// Counter returns (building on first use) the counter for name with the
// given label pairs (k1, v1, k2, v2, ...).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, "counter", nil, labels).c
}

// Gauge returns (building on first use) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, "gauge", nil, labels).g
}

// Histogram returns (building on first use) the histogram for name and
// labels. bounds is consulted only on the family's first registration;
// nil picks LatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	return r.lookup(name, "histogram", bounds, labels).h
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// renderLabels formats {k="v",...}; extra, when non-empty, is appended
// verbatim as one more pair (the histogram le bound).
func renderLabels(labels []string, extra string) string {
	if len(labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, labels[i], escapeLabel(labels[i+1]))
	}
	if extra != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float without exponent noise for integers.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders the registry in the Prometheus text exposition
// format, families and label sets in sorted order so scrapes are
// deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type snap struct {
		f       *family
		metrics []*metric
	}
	snaps := make([]snap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		keys := make([]string, 0, len(f.metrics))
		for k := range f.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := snap{f: f}
		for _, k := range keys {
			s.metrics = append(s.metrics, f.metrics[k])
		}
		snaps = append(snaps, s)
	}
	r.mu.Unlock()

	for _, s := range snaps {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.f.name, s.f.kind); err != nil {
			return err
		}
		for _, m := range s.metrics {
			switch s.f.kind {
			case "counter":
				if _, err := fmt.Fprintf(w, "%s%s %d\n", s.f.name, renderLabels(m.labels, ""), m.c.Value()); err != nil {
					return err
				}
			case "gauge":
				if _, err := fmt.Fprintf(w, "%s%s %s\n", s.f.name, renderLabels(m.labels, ""), formatValue(m.g.Value())); err != nil {
					return err
				}
			case "histogram":
				var cum int64
				for i, bound := range m.h.bounds {
					cum += m.h.counts[i].Load()
					le := fmt.Sprintf(`le="%s"`, formatValue(bound))
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.f.name, renderLabels(m.labels, le), cum); err != nil {
						return err
					}
				}
				cum += m.h.counts[len(m.h.bounds)].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.f.name, renderLabels(m.labels, `le="+Inf"`), cum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.f.name, renderLabels(m.labels, ""), formatValue(m.h.Sum())); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.f.name, renderLabels(m.labels, ""), m.h.Count()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Handler serves the registry at GET in the text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// Handler serves the default registry — what sectopk-node mounts at
// /metrics on the probe listener.
func Handler() http.Handler { return defaultRegistry.Handler() }
