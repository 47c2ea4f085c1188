package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifestFile is BENCHMARK.json at the root of the checkout, where run.sh
// starts the program. It is the single authority for the window length and
// for metric and workload names, units, directions and bounds: a run prints
// the metrics it lists, `record` measures for its run_seconds and `compare`
// applies its bounds.
const manifestFile = "BENCHMARK.json"

// manifest is the part of BENCHMARK.json the program reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	// EndToEnd are the metrics a user of the system sees, printed by an
	// untraced run. PerLayer are the metrics of single layers, printed by a
	// traced run; the prefix is the module measured. The README says which
	// end-to-end metric each should move, on which workload.
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end metric
	// may worsen before a change is rejected; per-layer metrics have none.
	Bound float64 `json:"bound"`
}

// readManifest reads BENCHMARK.json and checks that its workloads are the
// ones this program implements, in the same order.
func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.RunSeconds <= 0 || len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs run_seconds, end_to_end and per_layer", path)
	}
	if len(m.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s names %d workloads, the program has %d", path, len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, w.Name, workloads[i].name)
		}
	}
	return &m, nil
}
