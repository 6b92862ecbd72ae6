package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json, the benchmark's contract at the root of
// the repository: the workloads, the declared metrics, and the bound by
// which each end-to-end metric may get worse before it is a regression.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specPath is relative to the benchmark directory, where the program
// runs.
const specPath = "../BENCHMARK.json"

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &s, nil
}

// percentileOf names the end-to-end metrics that are percentiles over
// samples, for the sample-count rule.
var percentileOf = map[string]float64{"query_p50_ms": 50, "query_p90_ms": 90}
