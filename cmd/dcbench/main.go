// Command dcbench is the repository's benchmark: four named workloads,
// each a closed batch job that drives the program only through its
// public entry points (core.RunAnalyze, core.Run + core.AnalyzeRun,
// trace.OpenFile + core.AnalyzeSource, fleet.Execute), timed end to end
// from outside and, in a traced run, layer by layer. README.md describes
// the workloads, the metrics and how to read the spans.
//
//	go -C cmd/dcbench run . -seed 1                # every workload
//	go -C cmd/dcbench run . -workload sweep -seconds 20 -trace 1 -spans spans.json
//	go -C cmd/dcbench run . -benchmark ../../BENCHMARK.json -compare base.json new.json
//
// Each rep runs in a fresh child process, one at a time, so CPU time and
// peak RSS come from that child's rusage. The last line of standard
// output is one JSON object: correct, attempted, failed and the metrics
// (end-to-end medians, or the per-layer values with -trace 1). The exit
// code is nonzero when any rep failed.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(runChild(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:]))
}

// options are the parent's command-line settings.
type options struct {
	workloads []*workload
	seed      uint64
	seconds   float64
	reps      int
	trace     bool
	spans     string
	out       string
}

func run(args []string) int {
	fs := flag.NewFlagSet("dcbench", flag.ContinueOnError)
	names := fs.String("workload", "all", "comma-separated workloads to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the only input the program varies")
	seconds := fs.Float64("seconds", 20, "per workload, start reps until this much time has passed (at least 3 reps)")
	reps := fs.Int("reps", 0, "run exactly this many reps per workload instead of filling -seconds")
	traceFlag := fs.Int("trace", 0, "1: after the reps, run each workload once more traced and report per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the traced runs' spans as JSON to this file")
	out := fs.String("out", "", "write results (provenance, every rep's sample, summaries) as JSON to this file")
	compare := fs.Bool("compare", false, "compare two -out files: dcbench -compare base.json new.json")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "with -compare, the file declaring each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dcbench: -compare needs two results files")
			return 2
		}
		return runCompare(os.Stdout, fs.Arg(0), fs.Arg(1), *benchPath)
	}
	opts := options{seed: *seed, seconds: *seconds, reps: *reps, trace: *traceFlag == 1, spans: *spans, out: *out}
	if *names == "all" {
		opts.workloads = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w := workloadByName(strings.TrimSpace(n))
			if w == nil {
				fmt.Fprintf(os.Stderr, "dcbench: unknown workload %q\n", n)
				return 2
			}
			opts.workloads = append(opts.workloads, w)
		}
	}
	h, cleanup, err := newHarness(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		return 1
	}
	defer cleanup()
	return bench(os.Stdout, h, opts)
}

// newHarness prepares the self-exec harness and its scratch directory.
func newHarness(opts options) (*harness, func(), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "dcbench-")
	if err != nil {
		return nil, nil, err
	}
	h := &harness{
		exe:     exe,
		env:     childEnviron(),
		seed:    opts.seed,
		budget:  time.Duration(opts.seconds * float64(time.Second)),
		reps:    opts.reps,
		trace:   opts.trace,
		dir:     dir,
		timeout: 100 * time.Second,
	}
	// The pins are seed-1 digests on linux/amd64; other architectures
	// may fuse multiply-adds and legitimately differ.
	if opts.seed == 1 && runtime.GOARCH == "amd64" {
		if err := json.Unmarshal(pinsJSON, &h.pins); err != nil {
			return nil, nil, fmt.Errorf("pins.json: %w", err)
		}
	}
	return h, func() { os.RemoveAll(dir) }, nil
}

// childEnviron is the parent's environment marked for self-exec, with
// GOMEMLIMIT and GOGC cleared: reps run with the Go defaults.
func childEnviron() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOMEMLIMIT=") || strings.HasPrefix(kv, "GOGC=") || strings.HasPrefix(kv, childEnv+"=") {
			continue
		}
		env = append(env, kv)
	}
	return append(env, childEnv+"=1")
}

// bench runs the workloads, prints the table and the final JSON line,
// and writes the optional files. It returns the exit code.
func bench(w io.Writer, h *harness, opts options) int {
	var results []*result
	for _, wl := range opts.workloads {
		results = append(results, h.run(wl))
	}
	crossCheck(results)

	printTable(w, results)
	code := 0
	if opts.out != "" {
		if err := writeJSON(opts.out, resultsFile{Provenance: collectProvenance(), Seed: opts.seed,
			Seconds: opts.seconds, Reps: opts.reps, Workloads: results}); err != nil {
			fmt.Fprintln(os.Stderr, "dcbench:", err)
			code = 1
		}
	}
	if opts.spans != "" && opts.trace {
		all := make(map[string][]span)
		for _, r := range results {
			all[r.Workload] = r.spans
		}
		if err := writeJSON(opts.spans, all); err != nil {
			fmt.Fprintln(os.Stderr, "dcbench:", err)
			code = 1
		}
	}
	line := finalLine(results, opts.trace)
	if !line.Correct {
		code = 1
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(data))
	return code
}

// metricValue is one metric in the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the final line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finalLine reports the end-to-end medians (or with trace the
// per-layer values). With several workloads each metric name is
// prefixed by its workload's.
func finalLine(results []*result, trace bool) summaryLine {
	line := summaryLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		if r.Failed > 0 || r.RefErr != "" || trace && r.Layers == nil {
			line.Correct = false
		}
		prefix := ""
		if len(results) > 1 {
			prefix = r.Workload + "."
		}
		if trace {
			for _, d := range layerMetricDefs {
				line.Metrics[prefix+d.name] = metricValue{r.Layers[d.name], d.unit}
			}
			continue
		}
		for _, d := range e2eMetrics {
			line.Metrics[prefix+d.name] = metricValue{r.Metrics[d.name].Median, d.unit}
		}
	}
	return line
}

func printTable(w io.Writer, results []*result) {
	fmt.Fprintf(w, "%-13s %-12s %-5s %12s %12s %12s %4s\n", "workload", "metric", "unit", "median", "q1", "q3", "n")
	for _, r := range results {
		for _, d := range e2eMetrics {
			s := r.Metrics[d.name]
			fmt.Fprintf(w, "%-13s %-12s %-5s %12.4f %12.4f %12.4f %4d\n", r.Workload, d.name, d.unit, s.Median, s.Q1, s.Q3, s.N)
		}
		fmt.Fprintf(w, "%-13s %-12s %-5s %12d %12s %12s %4d\n", r.Workload, "failed", "count", r.Failed, "", "", r.Attempted)
		for _, s := range r.Samples {
			if s.Err != "" {
				fmt.Fprintf(w, "%-13s rep failed: %s\n", r.Workload, s.Err)
			}
		}
		if r.RefErr != "" {
			fmt.Fprintf(w, "%-13s reference failed: %s\n", r.Workload, r.RefErr)
		}
	}
}

// resultsFile is the -out document.
type resultsFile struct {
	Provenance provenance `json:"provenance"`
	Seed       uint64     `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Reps       int        `json:"reps"`
	Workloads  []*result  `json:"workloads"`
}

// provenance records what produced a results file.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	Time       string `json:"time"`
}

func collectProvenance() provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Revision:   "unknown",
		Modified:   "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
