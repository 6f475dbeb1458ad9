package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for dcbench's self-exec'd
// children. Two extra values of the child variable make a child fail on
// purpose, for the failure-accounting tests.
func TestMain(m *testing.M) {
	switch os.Getenv(childEnv) {
	case "":
		os.Exit(m.Run())
	case "panic":
		panic("dcbench test: injected child panic")
	case "exit":
		os.Exit(3)
	default:
		os.Exit(runChild(os.Args[1:]))
	}
}

// toyHarness runs one toy-scale rep per workload through the real
// self-exec path.
func toyHarness(t *testing.T) *harness {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		exe:     exe,
		env:     childEnviron(),
		seed:    1,
		toy:     true,
		reps:    1,
		dir:     t.TempDir(),
		timeout: time.Minute,
	}
}

// lastLine parses the final JSON line of bench's output.
func lastLine(t *testing.T, out []byte) summaryLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last output line is not the result object: %v\n%s", err, out)
	}
	return line
}

func TestWorkloadsSmoke(t *testing.T) {
	h := toyHarness(t)
	h.trace = true
	var out bytes.Buffer
	outFile := t.TempDir() + "/results.json"
	code := bench(&out, h, options{workloads: workloads, seed: 1, reps: 1, trace: true, out: outFile})
	if code != 0 {
		t.Fatalf("bench exit code %d\n%s", code, out.Bytes())
	}
	line := lastLine(t, out.Bytes())
	if !line.Correct || line.Failed != 0 || line.Attempted != 2*len(workloads) {
		t.Fatalf("result line: correct %v, %d of %d failed", line.Correct, line.Failed, line.Attempted)
	}
	for _, w := range workloads {
		for _, d := range layerMetricDefs {
			if _, ok := line.Metrics[w.name+"."+d.name]; !ok {
				t.Errorf("traced %s: no %s", w.name, d.name)
			}
		}
	}

	rf, err := readResults(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Provenance.NProc < 1 || rf.Provenance.GoVersion == "" || len(rf.Workloads) != len(workloads) {
		t.Errorf("results file: provenance %+v, %d workloads", rf.Provenance, len(rf.Workloads))
	}
	byName := make(map[string]*result)
	for _, r := range rf.Workloads {
		byName[r.Workload] = r
		for _, d := range e2eMetrics {
			s, ok := r.Metrics[d.name]
			if !ok || s.N != 1 || s.Median <= 0 || s.Unit != d.unit {
				t.Errorf("%s %s = %+v, want one positive sample in %s", r.Workload, d.name, s, d.unit)
			}
		}
		if len(r.Samples) != 1 || len(r.Reference) == 0 || !slices.Equal(r.Samples[0].Digests, r.Reference) {
			t.Errorf("%s: samples %+v, reference %v", r.Workload, r.Samples, r.Reference)
		}
	}
	// fleet ≡ standalone, checked from outside: sweep's tree runs are the
	// fused-laptop configs.
	fused, sweep := byName["fused-laptop"].Reference, byName["sweep"].Reference
	if len(sweep) != 2*len(fused) || !slices.Equal(sweep[:len(fused)], fused) {
		t.Errorf("sweep tree digests %v differ from fused-laptop %v", sweep, fused)
	}
}

// TestFailuresCount: a wrong pinned digest, a panicking child and a
// child exiting nonzero each fail every rep, leave the medians empty and
// make the invocation exit nonzero.
func TestFailuresCount(t *testing.T) {
	withEnv := func(v string) func(*harness) {
		return func(h *harness) {
			h.env = append(slices.DeleteFunc(h.env, func(kv string) bool {
				return strings.HasPrefix(kv, childEnv+"=")
			}), childEnv+"="+v)
		}
	}
	cases := []struct {
		name   string
		inject func(*harness)
	}{
		{"wrong pin", func(h *harness) { h.pins = map[string][]string{"fused-laptop": {"bad", "bad", "bad"}} }},
		{"child panics", withEnv("panic")},
		{"child exits nonzero", withEnv("exit")},
	}
	w := []*workload{workloadByName("fused-laptop")}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := toyHarness(t)
			h.reps = 2
			c.inject(h)
			var out bytes.Buffer
			code := bench(&out, h, options{workloads: w, seed: 1, reps: 2})
			line := lastLine(t, out.Bytes())
			if code == 0 || line.Correct || line.Attempted != 2 || line.Failed != 2 {
				t.Errorf("exit %d, result line %+v; want nonzero exit and 2 of 2 failed", code, line)
			}
			if v := line.Metrics["wall_s"].Value; v != 0 {
				t.Errorf("a failed rep reached the median: wall_s = %v", v)
			}
		})
	}
}
