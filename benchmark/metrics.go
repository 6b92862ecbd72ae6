package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported number with all its digits.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload: the declared metrics, the sample
// count behind each one that is a statistic over samples, and
// informational numbers that are not part of the declared set.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Info      map[string]metricValue `json:"info,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
	Env       environment            `json:"env"`

	// declared is the metric set BENCHMARK.json has this run carry: the
	// end-to-end metrics for an untraced run, the per-layer ones for a
	// traced run.
	declared []specMetric
}

func newRecord(bench *benchSpec, spec workloadSpec, trace bool, seed int64, seconds int) *runRecord {
	declared := bench.EndToEnd
	if trace {
		declared = bench.PerLayer
	}
	return &runRecord{
		Workload: spec.name, Trace: trace, Seed: seed, Seconds: seconds,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}, Info: map[string]metricValue{},
		Env: currentEnvironment(), declared: declared,
	}
}

// set stores a declared metric; the unit comes from the declaration.
func (r *runRecord) set(name string, value float64, samples int) {
	for _, d := range r.declared {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: value, Unit: d.Unit}
			if samples > 0 {
				r.Samples[name] = samples
			}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared for this run")
}

func (r *runRecord) info(name string, value float64, unit string, samples int) {
	r.Info[name] = metricValue{Value: value, Unit: unit}
	if samples > 0 {
		r.Samples[name] = samples
	}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *runRecord) fail(err error) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// finish settles correctness: no failed operation and every declared
// metric present.
func (r *runRecord) finish() {
	r.Correct = r.Failed == 0
	for _, d := range r.declared {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Correct = false
			r.Failures = append(r.Failures, "metric "+d.Name+" was not measured")
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Correct = false
	}
}

// printTable writes every metric by name and unit, each statistic beside
// its sample count.
func (r *runRecord) printTable(w io.Writer) {
	kind := "end-to-end (untraced)"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  window %ds  %s\n", r.Workload, r.Seed, r.Seconds, kind)
	row := func(name string, v metricValue, samples int) {
		n := ""
		if samples > 0 {
			n = fmt.Sprintf("n=%d", samples)
		}
		fmt.Fprintf(w, "  %-32s %16.4f %-6s %s\n", name, v.Value, v.Unit, n)
	}
	for _, d := range r.declared {
		if v, ok := r.Metrics[d.Name]; ok {
			row(d.Name, v, r.Samples[d.Name])
		}
	}
	if len(r.Info) > 0 {
		fmt.Fprintln(w, "  -- informational, not part of the declared set --")
		names := make([]string, 0, len(r.Info))
		for n := range r.Info {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			row(n, r.Info[n], r.Samples[n])
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

// resultLine is the one-line JSON object the run ends with.
func (r *runRecord) resultLine() string {
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(out)
}

// environment is recorded beside the numbers.
type environment struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	KeyBits    int    `json:"key_bits"`
}

func currentEnvironment() environment {
	return environment{
		Commit: headCommit(".."), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), KeyBits: keyBits,
	}
}

// headCommit reads the checked-out commit straight from .git; "unknown"
// in a checkout that is not a git repository.
func headCommit(repo string) string {
	head, err := os.ReadFile(filepath.Join(repo, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(repo, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// resultsFile is what a full run (or -repeat) writes: every run's record.
type resultsFile struct {
	Runs []*runRecord `json:"runs"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// readRecord reads one run's record.
func readRecord(path string) (*runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
