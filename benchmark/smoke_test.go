package main

import (
	"context"
	"sort"
	"testing"
)

// TestSmokeEveryWorkload runs every workload end to end with a short
// window — untraced, then traced with the minimum number of traced
// queries — and asserts that each run is correct, emits exactly the
// metric set BENCHMARK.json declares for it, and leaves no goroutine
// behind. The whole suite takes about a minute; -short keeps it under 15 s
// by running topk-shallow in full, mutate-beside-read untraced, and
// skipping the other two.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := mustSpec(t)
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	check := func(t *testing.T, rec *runRecord, declared []specMetric) {
		t.Helper()
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("run not correct: attempted %d, failed %d, failures %v", rec.Attempted, rec.Failed, rec.Failures)
		}
		var got []string
		for name, v := range rec.Metrics {
			got = append(got, name)
			if v.Unit == "" {
				t.Errorf("metric %s has no unit", name)
			}
		}
		sort.Strings(got)
		want := names(declared)
		if len(got) != len(want) {
			t.Fatalf("run emitted %d metrics, BENCHMARK.json declares %d:\n got %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("metric %d is %s, BENCHMARK.json declares %s", i, got[i], want[i])
			}
		}
	}
	ctx := context.Background()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if testing.Short() && (w.name == "topk-wan" || w.name == "mixed-fleet") {
				t.Skip("skipped by -short")
			}
			before := goroutines()
			rec, err := runTimed(ctx, spec, w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rec, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if rec.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, rec.Metrics[m.Name].Value)
				}
			}
			if testing.Short() && w.name != "topk-shallow" {
				waitGoroutines(t, before)
				return
			}
			rec, err = runTraced(ctx, spec, w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rec, spec.PerLayer)
			calls, rounds, fill := rec.Metrics["cloud.s2_calls"].Value, rec.Metrics["transport.rounds"].Value, rec.Metrics["cloud.batch_fill"].Value
			if d := calls - rounds*fill; d > 1e-6 || d < -1e-6 {
				t.Errorf("calls %v != rounds %v x fill %v", calls, rounds, fill)
			}
			waitGoroutines(t, before)
		})
	}
}
