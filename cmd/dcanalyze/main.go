// Command dcanalyze runs the full analysis pipeline and prints the
// regenerated data for every figure of the paper.
//
// By default it simulates a fresh run and analyzes it as it runs
// (congestion and application-impact analyses need link counters and
// application logs, which only a simulated run has): the analysis sweep
// pulls completed flows through a watermarked reorder buffer and steps
// the simulator whenever it needs more, so no record log is kept, while
// the §2 compression meter runs alongside. -duration sets the
// instrumented window; 0 keeps the configuration's own, 2h for the
// -racks × -servers laptop cluster and 24h with -paper. -metrics writes
// the run's final observability snapshot (including the live seam's
// trace.live.* series) as JSON:
//
//	dcanalyze -racks 8 -servers 10 -duration 2h -metrics run.json
//
// With -trace it streams a dcsim-written record file (JSONL, optionally
// .gz) through the bounded-memory pipeline instead, producing the
// record-only figures (2, 3, 4, 9, 10, 11, incast) without ever
// materializing the trace. Pass the -racks, -servers, -duration and
// -paper flags the trace was simulated with: they set the topology and
// duration it is analyzed against, and a record whose endpoint lies
// outside that topology is an error. A trace has no run, so -metrics is
// an error with -trace:
//
//	dcanalyze -trace trace.jsonl -racks 8 -servers 10 -duration 2h
//
// -mem-profile writes a heap profile captured at the sweep's peak
// buffered-record window; -max-heap-mb makes dcanalyze exit nonzero if
// the peak live heap exceeds the bound (GOMEMLIMIT is only a soft
// target, so bounded-memory smoke tests need their own check).
//
// -heat additionally prints the Figure 2 ASCII heat map.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dctraffic"
)

func main() {
	racks := flag.Int("racks", 8, "number of racks")
	servers := flag.Int("servers", 10, "servers per rack")
	duration := flag.Duration("duration", 0, "instrumented window (0 = the configuration's own: 2h, or 24h with -paper)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	traceFile := flag.String("trace", "", "stream this dcsim trace through the analysis instead of simulating; pass the -racks, -servers, -duration and -paper flags it was simulated with")
	metricsOut := flag.String("metrics", "", "write the run's final metrics snapshot as JSON to this file (not with -trace)")
	heat := flag.Bool("heat", false, "print the Figure 2 ASCII heat map")
	tsvDir := flag.String("tsv", "", "also write every figure's data series as TSV files into this directory")
	paper := flag.Bool("paper", false, "use the paper-scale configuration (75 racks x 20 servers, 24h) instead of -racks/-servers")
	jsonOut := flag.Bool("json", false, "print the machine-readable headline digest instead of the text report")
	progress := flag.Bool("progress", false, "report simulation progress, per-stage analysis timings and tomography solver effort on stderr")
	memProfile := flag.String("mem-profile", "", "write a heap profile captured at the largest live heap sampled as records arrive")
	maxHeapMB := flag.Int("max-heap-mb", 0, "exit nonzero if the peak live heap exceeds this many MiB (0 = no check)")
	flag.Parse()
	if *traceFile != "" && *metricsOut != "" {
		fmt.Fprintln(os.Stderr, "dcanalyze: -metrics needs a simulated run; -trace has none")
		os.Exit(2)
	}

	var aopts []dctraffic.AnalyzeOption
	var reg *dctraffic.Registry
	if *progress {
		reg = dctraffic.NewRegistry()
		aopts = append(aopts, dctraffic.WithAnalyzeObserver(reg))
	}
	hw := &heapWatch{profilePath: *memProfile, verbose: *progress}
	if *memProfile != "" || *maxHeapMB > 0 || *progress {
		aopts = append(aopts, dctraffic.WithAnalyzeProgress(hw.observe))
	}

	cfg := runConfigFor(*paper, *racks, *servers, *duration, *seed)
	var rr *dctraffic.RunResult
	var rep *dctraffic.Report
	var err error
	if *traceFile != "" {
		rep, err = analyzeTrace(*traceFile, cfg, aopts)
	} else {
		rr, rep, err = runAnalyze(cfg, *progress, *metricsOut, aopts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcanalyze:", err)
		os.Exit(1)
	}
	hw.finish()

	if reg != nil {
		snap := reg.Snapshot()
		for _, ph := range snap.Phases {
			fmt.Fprintf(os.Stderr, "%-20s %8.3fs\n", ph.Name, ph.Seconds)
		}
		if rr != nil && rr.Metrics != nil {
			// The sweep steps the simulator, so analyze.figures includes
			// the steps; the seam times them on their own.
			fmt.Fprintf(os.Stderr, "%-20s %8.3fs  (trace.live.step_seconds, inside analyze.figures)\n",
				"simulator steps", rr.Metrics.Value("trace.live.step_seconds"))
		}
		// Tomography solver effort: how hard the sparsity-max simplex
		// worked, and how often window-to-window warm starts paid off.
		for _, s := range snap.Series {
			if !strings.HasPrefix(s.Name, "tomo.") {
				continue
			}
			if s.Kind == "histogram" {
				mean := 0.0
				if s.Count > 0 {
					mean = s.Sum / float64(s.Count)
				}
				fmt.Fprintf(os.Stderr, "%-32s n=%-4d sum=%-8.0f mean=%.1f\n", s.Name, s.Count, s.Sum, mean)
			} else {
				fmt.Fprintf(os.Stderr, "%-32s %.0f\n", s.Name, s.Value)
			}
		}
	}

	if *jsonOut {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcanalyze:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(rep.Text())
	}
	if *tsvDir != "" {
		if err := rep.WriteTSV(*tsvDir); err != nil {
			fmt.Fprintln(os.Stderr, "dcanalyze:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "figure data written to %s\n", *tsvDir)
	}
	if *heat {
		fmt.Println("\n== Fig 2 heat map (loge bytes, rows=src, cols=dst) ==")
		fmt.Print(dctraffic.HeatASCII(rep.Fig2.TM, 60))
	}
	if *maxHeapMB > 0 {
		peakMB := hw.peakHeap >> 20
		fmt.Fprintf(os.Stderr, "peak live heap: %d MiB (limit %d MiB)\n", peakMB, *maxHeapMB)
		if peakMB > uint64(*maxHeapMB) {
			fmt.Fprintf(os.Stderr, "dcanalyze: peak heap exceeded -max-heap-mb\n")
			os.Exit(1)
		}
	}
}

// runConfigFor builds the run configuration both paths share: the
// simulating path runs it, and -trace analyzes against its topology and
// duration. A zero duration keeps the configuration's own.
func runConfigFor(paper bool, racks, servers int, duration time.Duration, seed uint64) dctraffic.RunConfig {
	cfg := dctraffic.SmallRun()
	if paper {
		cfg = dctraffic.PaperRun()
	} else {
		cfg.Topology.Racks = racks
		cfg.Topology.ServersPerRack = servers
		cfg.Sched.JobsPerHour = 150 * float64(racks*servers) / 80
	}
	if duration != 0 {
		cfg.Duration = duration
	}
	cfg.Seed = seed
	cfg.Sched.Seed = seed
	return cfg
}

// runAnalyze simulates cfg and analyzes it on one goroutine: the
// analysis sweep pulls the simulator's completed flows through the
// watermarked live source and steps the run whenever it needs more, so
// record-derived figures compute while the cluster still runs and no
// record log is kept. With -progress both halves report interleaved on
// stderr (the "sim" line from the run loop, the "analyze" line from the
// sweep); -metrics writes the run's final snapshot.
func runAnalyze(cfg dctraffic.RunConfig, progress bool, metricsPath string, aopts []dctraffic.AnalyzeOption) (*dctraffic.RunResult, *dctraffic.Report, error) {
	var runOpts []dctraffic.RunOption
	if progress {
		runOpts = append(runOpts, dctraffic.WithProgress(func(p dctraffic.Progress) {
			fmt.Fprintf(os.Stderr, "\rsim %3.0f%%  t=%v  events=%d  records=%d",
				100*p.Frac(), p.SimTime, p.Events, p.Records)
			if p.Frac() >= 1 {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	closeMetrics := func() error { return nil }
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return nil, nil, err
		}
		runOpts = append(runOpts, dctraffic.WithMetricsSink(f))
		closeMetrics = f.Close
	}
	aopts = append(aopts, dctraffic.WithRunOptions(runOpts...))
	rr, rep, err := dctraffic.RunAnalyze(context.Background(), cfg, aopts...)
	if cerr := closeMetrics(); err == nil && cerr != nil {
		return nil, nil, cerr
	}
	return rr, rep, err
}

// analyzeTrace streams a trace file through the bounded-memory pipeline:
// records flow from the file source straight into the sweep's sliding
// window and online accumulators, so memory stays O(window) no matter
// how long the trace is. The topology and duration are cfg's, the run
// configuration the simulating path would use. Run-only figures (5-8,
// tomography, attribution) stay zero.
func analyzeTrace(path string, cfg dctraffic.RunConfig, aopts []dctraffic.AnalyzeOption) (*dctraffic.Report, error) {
	top, err := dctraffic.NewTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	src, err := dctraffic.OpenTraceFile(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	aopts = append(aopts,
		dctraffic.WithAnalyzeTopology(top),
		dctraffic.WithAnalyzeDuration(cfg.Duration),
	)
	return dctraffic.AnalyzeSource(context.Background(), src, aopts...)
}

// heapWatch samples the live heap as the sweep's buffered-record count
// or its delivered-record count grows, capturing a heap profile at the
// high-water mark. The buffered peak stops growing early in a long
// trace while the whole-run CDFs keep growing with every record, so
// either count's ~10% growth takes a sample. That keeps the
// ReadMemStats/GC cost to O(log records) stops, not one per window
// boundary.
type heapWatch struct {
	profilePath    string
	verbose        bool
	sampledPeak    int
	sampledRecords int64
	peakHeap       uint64
	lastProgress   time.Time
}

func (h *heapWatch) observe(p dctraffic.StreamProgress) {
	if h.verbose && time.Since(h.lastProgress) > 200*time.Millisecond {
		h.lastProgress = time.Now()
		pct := 0.0
		if p.Duration > 0 {
			pct = 100 * float64(p.Time) / float64(p.Duration)
			if pct > 100 {
				pct = 100
			}
		}
		fmt.Fprintf(os.Stderr, "\ranalyze %3.0f%%  records=%d  buffered=%d  peak=%d",
			pct, p.Records, p.Buffered, p.PeakBuffered)
	}
	if p.PeakBuffered <= h.sampledPeak+h.sampledPeak/10 && p.Records <= h.sampledRecords+h.sampledRecords/10 {
		return
	}
	h.sampledPeak, h.sampledRecords = p.PeakBuffered, p.Records
	h.sample()
}

// sample records the current live heap and refreshes the peak profile.
func (h *heapWatch) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc <= h.peakHeap {
		return
	}
	h.peakHeap = ms.HeapAlloc
	if h.profilePath == "" {
		return
	}
	f, err := os.Create(h.profilePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcanalyze: mem-profile:", err)
		return
	}
	runtime.GC() // heap profiles reflect the last GC cycle
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "dcanalyze: mem-profile:", err)
	}
	f.Close()
}

// finish takes a final sample (the peak may be after the last window)
// and ends the progress line.
func (h *heapWatch) finish() {
	h.sample()
	if h.verbose && !h.lastProgress.IsZero() {
		fmt.Fprintln(os.Stderr)
	}
}
