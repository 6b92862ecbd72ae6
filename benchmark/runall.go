package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAll runs every workload, each in its own process so workloads share
// neither cores nor nonce pools: the untraced run, then (with traced) the
// traced one. With repeat > 1 the whole set runs again and each
// end-to-end metric's spread is held against its bound. It writes every
// run's record to out and reports whether every run was correct.
func runAll(bench *benchSpec, seed int64, seconds int, traced bool, repeat int, reverse bool, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	order := append([]workloadSpec(nil), workloads...)
	if reverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	traces := []bool{false}
	if traced {
		traces = append(traces, true)
	}
	var results resultsFile
	ok := true
	for rep := 0; rep < repeat; rep++ {
		for _, w := range order {
			for _, tr := range traces {
				rec, err := runChild(self, w, seed, seconds, tr)
				if err != nil {
					return false, fmt.Errorf("%s: %w", w.name, err)
				}
				ok = ok && rec.Correct
				results.Runs = append(results.Runs, rec)
			}
		}
	}
	if err := writeJSON(out, &results); err != nil {
		return false, err
	}
	fmt.Printf("\nresults written to %s\n", out)
	printSpread(os.Stdout, bench, &results)
	return ok, nil
}

// runChild re-executes this program for one run and reads back the record
// it left under out/.
func runChild(self string, w workloadSpec, seed int64, seconds int, traced bool) (*runRecord, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	return readRecord(recordPath(&runRecord{Workload: w.name, Trace: traced, Seed: seed}))
}

// values collects one end-to-end metric's value in every untraced run of
// a workload.
func (rf *resultsFile) values(workload, metric string) (vals []float64, minSamples int) {
	minSamples = -1
	for _, r := range rf.Runs {
		if r.Trace || r.Workload != workload {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		vals = append(vals, v.Value)
		if n := r.Samples[metric]; minSamples < 0 || n < minSamples {
			minSamples = n
		}
	}
	return vals, minSamples
}

// unresolved says why a metric's runs cannot settle a comparison: their
// spread exceeds the bound, or a percentile has too few samples behind it.
func unresolved(m specMetric, vals []float64, minSamples int) string {
	if p, ok := percentileOf[m.Name]; ok && !supported(minSamples, p) {
		return fmt.Sprintf("n=%d does not support p%.0f", minSamples, p)
	}
	if s := spread(vals); s > m.Bound {
		return fmt.Sprintf("spread %.1f%% exceeds bound", 100*s)
	}
	return ""
}

// printSpread is -repeat's report: per workload and end-to-end metric,
// the median over the runs, the spread (max/min - 1) and the bound.
func printSpread(w io.Writer, spec *benchSpec, rf *resultsFile) {
	fmt.Fprintf(w, "\n%-20s %-18s %14s %6s %9s %9s %7s  %s\n", "workload", "metric", "median", "unit", "spread", "iqr", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			vals, minSamples := rf.values(wl.Name, m.Name)
			if len(vals) == 0 {
				continue
			}
			verdict := "ok"
			if why := unresolved(m, vals, minSamples); why != "" {
				verdict = "unresolved: " + why
			}
			fmt.Fprintf(w, "%-20s %-18s %14.4f %6s %8.2f%% %8.2f%% %6.0f%%  %s\n",
				wl.Name, m.Name, median(vals), m.Unit, 100*spread(vals), 100*iqrShare(vals), 100*m.Bound, verdict)
		}
	}
}
