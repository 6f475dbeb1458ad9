package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runCompare prints, for every workload and end-to-end metric, both
// sides' median and quartiles and the verdict against the metric's
// bound in BENCHMARK.json and its absolute floor. It returns 1 when any
// metric is worse than its bound.
func runCompare(w io.Writer, basePath, newPath, benchPath string) int {
	bf, err := readBenchFile(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		return 2
	}
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		return 2
	}
	byName := make(map[string]*result, len(base.Workloads))
	for _, r := range base.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-13s %-12s %-32s %-32s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "verdict")
	code := 0
	for _, nr := range cur.Workloads {
		br, ok := byName[nr.Workload]
		if !ok {
			fmt.Fprintf(w, "%-13s missing from %s\n", nr.Workload, basePath)
			continue
		}
		for _, m := range bf.EndToEnd {
			b, n := br.Metrics[m.Name], nr.Metrics[m.Name]
			floor := absFloors[m.Name]
			v, change := checkBound(b, n, m.Bound, floor, m.Better != "higher")
			if v == verdictWorse {
				code = 1
			}
			limit := fmt.Sprintf("bound %.0f%%", 100*m.Bound)
			if floor > 0 {
				limit += fmt.Sprintf(", floor %g %s", floor, m.Unit)
			}
			fmt.Fprintf(w, "%-13s %-12s %-32s %-32s %+7.1f%%  %s (%s)\n", nr.Workload, m.Name,
				quartiles(b), quartiles(n), 100*change, v, limit)
		}
		if nr.Failed > br.Failed {
			fmt.Fprintf(w, "%-13s failed reps: %d → %d\n", nr.Workload, br.Failed, nr.Failed)
			code = 1
		}
	}
	return code
}

func quartiles(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.Median, s.Q1, s.Q3, s.N)
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
