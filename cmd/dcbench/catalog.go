package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one metric: its name, unit and which direction is
// better ("lower" or "higher").
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are measured on every rep, with tracing off.
var e2eMetrics = []metricDef{
	{"wall_s", "s", "lower"},        // the op, config in to last Report out
	{"cpu_s", "s", "lower"},         // user + sys CPU of the op, from the child's rusage
	{"peak_rss_mb", "MiB", "lower"}, // the child's ru_maxrss, counted from the op's start
	{"setup_s", "s", "lower"},       // from the child's exec to the op's start
}

// absFloors are absolute floors under the relative bounds of
// BENCHMARK.json, in the metric's unit: -compare counts a change smaller
// than the floor as no change. The simulated workloads' setup_s is a
// millisecond or two of process start, where scheduler jitter alone
// moves the median by more than a relative bound.
var absFloors = map[string]float64{"setup_s": 0.05}

// layerMetricDefs are reported by a traced run. README.md maps each to
// the end-to-end metric and workload it should move.
var layerMetricDefs = []metricDef{
	{"topology.build_ms", "ms", "lower"},

	{"sim.simulate_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.batch_ms_p50", "ms", "lower"},
	{"sim.batch_ms_p99", "ms", "lower"},
	{"sim.recomputes", "count", "lower"},
	{"sim.component_links_mean", "count", "lower"},
	{"sim.parallel_windows", "count", "lower"},
	{"sim.barrier_waits", "count", "lower"},
	{"sim.records", "count", "higher"},
	{"sim.jobs", "count", "higher"},
	{"ab.pdes_gain", "ratio", "higher"},

	{"netsim.replay_s", "s", "lower"},
	{"netsim.replay_ns_per_event", "ns", "lower"},
	{"workload.residual_s", "s", "lower"},

	{"seam.buffered_peak", "count", "lower"},
	{"seam.backpressure_waits", "count", "lower"},
	{"seam.watermark_lag_s_mean", "s", "lower"},
	{"ab.fused_gain", "ratio", "higher"},

	{"analyze.index_s", "s", "lower"},
	{"analyze.figures_s", "s", "lower"},
	{"analyze.congestion_s", "s", "lower"},
	{"analyze.tasks", "count", "lower"},
	{"analyze.records", "count", "higher"},
	{"analyze.peak_buffered_records", "count", "lower"},
	{"analyze.window_ms_p50", "ms", "lower"},
	{"analyze.window_ms_p99", "ms", "lower"},
	{"ab.analyze_pool_gain", "ratio", "higher"},

	{"tomo.windows", "count", "higher"},
	{"tomo.warm_ratio", "ratio", "higher"},
	{"tomo.windows_fallback", "count", "lower"},
	{"tomo.pivots_mean", "count", "lower"},
	{"tomo.refactorizations_mean", "count", "lower"},
	{"tomo.sparsity_ms_p50", "ms", "lower"},
	{"tomo.sparsity_ms_max", "ms", "lower"},
	{"tomo.tomogravity_ms_p50", "ms", "lower"},
	{"tomo.tomogravity_ms_max", "ms", "lower"},
	{"tomo.solve_s", "s", "lower"},

	{"trace.write_s", "s", "lower"},
	{"trace.file_mb", "MiB", "lower"},
	{"trace.open_s", "s", "lower"},
	{"trace.decode_ns_per_record", "ns", "lower"},
	{"trace.analyze_s", "s", "lower"},

	{"fleet.runs", "count", "higher"},
	{"fleet.run_wall_s_p50", "s", "lower"},
	{"fleet.run_wall_s_max", "s", "lower"},
	{"fleet.pool_tasks", "count", "lower"},
	{"fleet.pool_queue_peak", "count", "lower"},
	{"fleet.admission_waits", "count", "lower"},
	{"fleet.topo_cache_hits", "count", "higher"},
	{"ab.fleet_gain", "ratio", "higher"},

	{"runtime.alloc_mb", "MiB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_peak_mb", "MiB", "lower"},

	{"bench.trace_overhead", "ratio", "lower"},
}

// benchFile is the subset of BENCHMARK.json dcbench reads: the declared
// catalog and the end-to-end bounds.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
