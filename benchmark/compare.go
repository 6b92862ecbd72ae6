package main

import (
	"fmt"
	"io"
)

// compareFiles is the regression gate: one row per workload and
// end-to-end metric with the base, the new value, their ratio and a
// verdict under BENCHMARK.json's bounds. It reports whether any row is
// worse or any workload's share of failed operations rose.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) (worse bool, err error) {
	base, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	next, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	return compareResults(w, spec, base, next), nil
}

func compareResults(w io.Writer, spec *benchSpec, base, next *resultsFile) (worse bool) {
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %6s %10s %7s  %s\n", "workload", "metric", "base", "new", "unit", "new/base", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			verdict, b, n := compareMetric(m, base, next, wl.Name)
			if verdict == "" {
				continue
			}
			if verdict == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "%-20s %-18s %14.4f %14.4f %6s %10.4f %6.0f%%  %s\n",
				wl.Name, m.Name, b, n, m.Unit, n/b, 100*m.Bound, verdict)
		}
		fb, fn := base.failRatio(wl.Name), next.failRatio(wl.Name)
		verdict := "same"
		if fn > fb {
			verdict = "worse"
			worse = true
		}
		fmt.Fprintf(w, "%-20s %-18s %14.6f %14.6f %6s %10s %7s  %s\n", wl.Name, "fail_ratio", fb, fn, "ratio", "", "0", verdict)
	}
	return worse
}

// compareMetric judges one metric on one workload by the medians of the
// two files' runs. "" when either file lacks it.
func compareMetric(m specMetric, base, next *resultsFile, workload string) (verdict string, b, n float64) {
	bv, bSamples := base.values(workload, m.Name)
	nv, nSamples := next.values(workload, m.Name)
	if len(bv) == 0 || len(nv) == 0 {
		return "", 0, 0
	}
	b, n = median(bv), median(nv)
	if why := unresolved(m, bv, bSamples); why != "" {
		return "unresolved: base " + why, b, n
	}
	if why := unresolved(m, nv, nSamples); why != "" {
		return "unresolved: new " + why, b, n
	}
	// change > 0 means worse, as a share of the base.
	change := (n - b) / b
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse", b, n
	case change < -m.Bound:
		return "better", b, n
	}
	return "same", b, n
}

// failRatio is failed over attempted operations across a workload's runs,
// traced ones included.
func (rf *resultsFile) failRatio(workload string) float64 {
	var failed, attempted int
	for _, r := range rf.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
