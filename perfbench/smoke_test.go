package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestSmoke runs every workload at tiny sizes, untraced and traced: each
// must print every metric and pass its correctness oracle.
func TestSmoke(t *testing.T) {
	if err := smoke(1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	check := func(kind string, got []metric, want []metricDef) {
		var w []metric
		for _, m := range want {
			if m.name != "fail_frac" { // reported as failed/attempted
				w = append(w, metric{m.name, m.unit})
			}
		}
		if !slices.Equal(got, w) {
			t.Errorf("%s metrics in BENCHMARK.json:\n%v\nprogram reports:\n%v", kind, got, w)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
