package main

import (
	"slices"
	"testing"
)

// TestCatalog: the workloads and metrics dcbench emits are exactly those
// BENCHMARK.json declares, with the same units and directions.
// TestWorkloadsSmoke checks that a traced run emits every layer metric.
func TestCatalog(t *testing.T) {
	bf, err := readBenchFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared, emitted []string
	for _, w := range bf.Workloads {
		declared = append(declared, "workload "+w.Name)
	}
	for _, w := range workloads {
		emitted = append(emitted, "workload "+w.name)
	}
	for _, m := range bf.EndToEnd {
		declared = append(declared, "e2e "+m.Name+" "+m.Unit+" "+m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, d := range e2eMetrics {
		emitted = append(emitted, "e2e "+d.name+" "+d.unit+" "+d.better)
	}
	for _, m := range bf.PerLayer {
		declared = append(declared, "layer "+m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, d := range layerMetricDefs {
		emitted = append(emitted, "layer "+d.name+" "+d.unit+" "+d.better)
	}
	for _, e := range emitted {
		if !slices.Contains(declared, e) {
			t.Errorf("emitted but not declared in BENCHMARK.json: %s", e)
		}
	}
	for _, d := range declared {
		if !slices.Contains(emitted, d) {
			t.Errorf("declared in BENCHMARK.json but not emitted: %s", d)
		}
	}
	floored := 0
	for _, d := range e2eMetrics {
		if _, ok := absFloors[d.name]; ok {
			floored++
		}
	}
	if floored != len(absFloors) {
		t.Errorf("absFloors %v names a metric that is not end-to-end", absFloors)
	}
}
