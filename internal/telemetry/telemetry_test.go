package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeLookup(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "tenant", "gold")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	if got := r.Counter("reqs_total", "tenant", "gold").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := r.Counter("reqs_total", "tenant", "free").Value(); got != 0 {
		t.Fatalf("distinct label set shares state: %d", got)
	}
	g := r.Gauge("epoch", "relation", "demo")
	g.Set(7)
	if got := r.Gauge("epoch", "relation", "demo").Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // third bucket
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if p50 := h.Quantile(0.5); p50 <= 0 || p50 > 0.01 {
		t.Fatalf("p50 = %v, want within the first bucket", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 0.1 || p99 > 1 {
		t.Fatalf("p99 = %v, want within the (0.1, 1] bucket", p99)
	}
	// Overflow lands in +Inf and reports the top bound's floor.
	h2 := r.Histogram("lat2_seconds", []float64{0.01})
	h2.Observe(5)
	if q := h2.Quantile(0.5); q != 0.01 {
		t.Fatalf("+Inf bucket quantile = %v, want the 0.01 floor", q)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", "side", "caller", "method", "Batch").Add(4)
	r.Gauge("members").Set(3)
	r.Histogram("q_seconds", []float64{0.1, 1}).Observe(0.05)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE frames_total counter",
		`frames_total{side="caller",method="Batch"} 4`,
		"# TYPE members gauge",
		"members 3",
		"# TYPE q_seconds histogram",
		`q_seconds_bucket{le="0.1"} 1`,
		`q_seconds_bucket{le="+Inf"} 1`,
		"q_seconds_sum 0.05",
		"q_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("errs_total", "msg", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `msg="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %s", b.String())
	}
}

// TestEmitRecordsIntoDefaultRegistry: a frame lands on the default
// registry's mux counter, a span's workload, tenant and code on its query
// counter, and the span's epoch on the relation's gauge.
func TestEmitRecordsIntoDefaultRegistry(t *testing.T) {
	EmitFrame(FrameEvent{Side: "caller", Method: "Test.Emit", Bytes: 10, Elapsed: time.Millisecond})
	EmitSpan(QuerySpan{Workload: "topk", Tenant: "gold", Relation: "demo", Epoch: 2, Elapsed: time.Millisecond})
	if Default().Counter("sectopk_mux_frames_total", "side", "caller", "method", "Test.Emit").Value() < 1 {
		t.Fatal("EmitFrame did not record into the default registry")
	}
	if Default().Counter("sectopk_queries_total", "workload", "topk", "tenant", "gold", "code", "ok").Value() < 1 {
		t.Fatal("EmitSpan did not record into the default registry")
	}
	if Default().Gauge("sectopk_relation_epoch", "relation", "demo").Value() != 2 {
		t.Fatal("EmitSpan did not record the epoch gauge")
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c_total").Inc()
				r.Histogram("h_seconds", nil).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_seconds", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
