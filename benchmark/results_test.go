package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutines counts live goroutines; waitGoroutines waits for the count
// to come back down to a baseline (goroutines exit asynchronously after
// the Close that stops them returns).
func goroutines() int { return runtime.NumGoroutine() }

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for goroutines() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines still alive, baseline %d:\n%s", goroutines(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// mustSpec loads BENCHMARK.json.
func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	bench, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return bench
}

func TestResultsRoundTrip(t *testing.T) {
	spec, _ := findWorkload("topk-wan")
	rec := newRecord(mustSpec(t), spec, false, 42, 7)
	rec.Attempted = 12
	rec.set("qps", 6.123456789012345, 12)
	rec.set("query_p90_ms", 201.25, 12)
	rec.info("apply_p50_ms", 2.5, "ms", 3)
	rec.fail(os.ErrDeadlineExceeded)
	path := filepath.Join(t.TempDir(), "deep", "results.json")
	if err := writeJSON(path, &resultsFile{Runs: []*runRecord{rec}}); err != nil {
		t.Fatal(err)
	}
	got, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.declared = nil // not part of the file
	if len(got.Runs) != 1 || !reflect.DeepEqual(got.Runs[0], rec) {
		t.Errorf("round trip changed the record:\n got %+v\nwant %+v", got.Runs[0], rec)
	}
	env := got.Runs[0].Env
	if env.NProc < 1 || env.GOMAXPROCS < 1 || env.GoVersion == "" || env.KeyBits != keyBits || env.Commit == "" {
		t.Errorf("environment not recorded: %+v", env)
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	spec, _ := findWorkload("topk-shallow")
	rec := newRecord(mustSpec(t), spec, false, 1, 1)
	rec.Attempted = 3
	rec.set("qps", 1.5, 3)
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(rec.resultLine()), &line); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	if strings.Contains(rec.resultLine(), "\n") {
		t.Error("result line spans lines")
	}
}

// BENCHMARK.json is the one place metrics are declared; it must stay
// within the contract's limits and name the program's workloads.
func TestSpecWithinContract(t *testing.T) {
	spec := mustSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, declared []specMetric, max int) {
		if len(declared) < 1 || len(declared) > max {
			t.Errorf("%s: %d metrics, want 1..%d", kind, len(declared), max)
		}
		for _, m := range declared {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q [%s]: malformed or repeated", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, 16)
	check("per-layer", spec.PerLayer, 128)
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s [s, lower] is not declared")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []specMetric{
			{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
			{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	run := func(p50, qps float64, samples, failed int) *runRecord {
		return &runRecord{Workload: "w", Attempted: 100, Failed: failed,
			Metrics: map[string]metricValue{"query_p50_ms": {p50, "ms"}, "qps": {qps, "1/s"}},
			Samples: map[string]int{"query_p50_ms": samples, "qps": samples}}
	}
	file := func(runs ...*runRecord) *resultsFile { return &resultsFile{Runs: runs} }
	base := file(run(100, 10, 50, 0), run(102, 10.1, 50, 0))
	for _, tc := range []struct {
		name     string
		next     *resultsFile
		p50, qps string
		worse    bool
	}{
		{"same", file(run(104, 9.8, 50, 0)), "same", "same", false},
		{"slower", file(run(120, 10, 50, 0)), "worse", "same", true},
		{"faster", file(run(80, 12, 50, 0)), "better", "better", false},
		{"less throughput", file(run(101, 8, 50, 0)), "same", "worse", true},
		{"too few samples", file(run(150, 10, 12, 0)), "unresolved", "same", false},
		{"runs disagree", file(run(90, 10, 50, 0), run(130, 10, 50, 0)), "unresolved", "same", false},
		{"new failures", file(run(101, 10, 50, 1)), "same", "same", true},
	} {
		var out bytes.Buffer
		worse := compareResults(&out, spec, base, tc.next)
		if worse != tc.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", tc.name, worse, tc.worse, out.String())
		}
		p50, _, _ := compareMetric(spec.EndToEnd[0], base, tc.next, "w")
		qps, _, _ := compareMetric(spec.EndToEnd[1], base, tc.next, "w")
		if !strings.HasPrefix(p50, tc.p50) || !strings.HasPrefix(qps, tc.qps) {
			t.Errorf("%s: verdicts p50=%q qps=%q, want %q and %q", tc.name, p50, qps, tc.p50, tc.qps)
		}
	}
}
