// Command dcanalyze runs the full analysis pipeline and prints the
// regenerated data for every figure of the paper.
//
// By default it simulates a fresh run (congestion and application-impact
// analyses need link counters and application logs, which live only in a
// live run):
//
//	dcanalyze -racks 8 -servers 10 -duration 2h
//
// With -trace it streams a dcsim-written record file (JSONL, optionally
// .gz) through the bounded-memory pipeline instead, producing the
// record-only figures (2, 3, 4, 9, 10, 11, incast) without ever
// materializing the trace. Pass the flags the trace was simulated with
// (-racks, -servers and -duration, or -paper): they set the topology
// and duration it is analyzed against, and a record whose endpoint
// lies outside that topology is an error:
//
//	dcanalyze -trace trace.jsonl -racks 8 -servers 10 -duration 2h
//
// With -fused the simulation and the analysis run as one interleaved
// pipeline: the analysis sweep pulls completed flows through a
// watermarked reorder buffer and steps the simulator whenever it needs
// more, producing the full figure set bit-identically to the two-phase
// default without keeping a record log, while the §2 compression meter
// runs alongside. -metrics writes the run's
// final observability snapshot (including the fused seam's trace.live.*
// series) as JSON:
//
//	dcanalyze -fused -racks 8 -servers 10 -duration 2h -metrics run.json
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
	duration := flag.Duration("duration", 2*time.Hour, "instrumented window")
	seed := flag.Uint64("seed", 1, "simulation seed")
	traceFile := flag.String("trace", "", "stream this dcsim trace through the analysis instead of simulating")
	fused := flag.Bool("fused", false, "interleave simulation and analysis in one fused pipeline (identical figures; no record log is kept)")
	metricsOut := flag.String("metrics", "", "write the run's final metrics snapshot as JSON to this file (simulating modes only)")
	heat := flag.Bool("heat", false, "print the Figure 2 ASCII heat map")
	tsvDir := flag.String("tsv", "", "also write every figure's data series as TSV files into this directory")
	paper := flag.Bool("paper", false, "use the paper-scale configuration (75 racks x 20 servers, 24h)")
	jsonOut := flag.Bool("json", false, "print the machine-readable headline digest instead of the text report")
	progress := flag.Bool("progress", false, "report simulation progress, per-stage analysis timings and tomography solver effort on stderr")
	memProfile := flag.String("mem-profile", "", "write a heap profile captured at the largest live heap sampled as records arrive")
	maxHeapMB := flag.Int("max-heap-mb", 0, "exit nonzero if the peak live heap exceeds this many MiB (0 = no check)")
	flag.Parse()

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

	var rep *dctraffic.Report
	var err error
	switch {
	case *traceFile != "":
		rep, err = analyzeTrace(*traceFile, runConfigFor(*paper, *racks, *servers, *duration, *seed), aopts)
	case *fused:
		rep, err = runFused(*paper, *racks, *servers, *duration, *seed, *progress, *metricsOut, aopts)
	default:
		rep, err = simulateAndAnalyze(*paper, *racks, *servers, *duration, *seed, *progress, *metricsOut, aopts)
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

// runConfigFor builds the run configuration every path shares: the
// two-phase and fused paths simulate it, and -trace analyzes against
// its topology and duration.
func runConfigFor(paper bool, racks, servers int, duration time.Duration, seed uint64) dctraffic.RunConfig {
	cfg := dctraffic.SmallRun()
	if paper {
		cfg = dctraffic.PaperRun()
	} else {
		cfg.Topology.Racks = racks
		cfg.Topology.ServersPerRack = servers
		cfg.Duration = duration
		cfg.Sched.JobsPerHour = 150 * float64(racks*servers) / 80
	}
	cfg.Seed = seed
	cfg.Sched.Seed = seed
	return cfg
}

// simRunOptions assembles the run options the simulating paths share:
// the -progress reporter and the -metrics snapshot sink. The returned
// closer flushes the metrics file after the run completes.
func simRunOptions(progress bool, metricsPath string) (opts []dctraffic.RunOption, closeFn func() error, err error) {
	closeFn = func() error { return nil }
	if progress {
		opts = append(opts, dctraffic.WithProgress(func(p dctraffic.Progress) {
			fmt.Fprintf(os.Stderr, "\rsim %3.0f%%  t=%v  events=%d  records=%d",
				100*p.Frac(), p.SimTime, p.Events, p.Records)
			if p.Frac() >= 1 {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, dctraffic.WithMetricsSink(f))
		closeFn = f.Close
	}
	return opts, closeFn, nil
}

// simulateAndAnalyze is the default path: fresh run, full figure set.
func simulateAndAnalyze(paper bool, racks, servers int, duration time.Duration, seed uint64, progress bool, metricsPath string, aopts []dctraffic.AnalyzeOption) (*dctraffic.Report, error) {
	cfg := runConfigFor(paper, racks, servers, duration, seed)
	runOpts, closeMetrics, err := simRunOptions(progress, metricsPath)
	if err != nil {
		return nil, err
	}
	rr, err := dctraffic.Run(context.Background(), cfg, runOpts...)
	if err != nil {
		closeMetrics()
		return nil, err
	}
	rep, err := dctraffic.AnalyzeRun(context.Background(), rr, aopts...)
	if cerr := closeMetrics(); err == nil && cerr != nil {
		return nil, cerr
	}
	return rep, err
}

// runFused interleaves the two dominant phases on one goroutine: the
// analysis sweep pulls the simulator's completed flows through the
// watermarked live source and steps the run whenever it needs more, so
// record-derived figures compute while the cluster still runs and the
// trace is never sorted into a second copy. With -progress both phases
// report interleaved on stderr (the "sim" line from the run loop, the
// "analyze" line from the sweep). Figures are bit-identical to the
// two-phase default.
func runFused(paper bool, racks, servers int, duration time.Duration, seed uint64, progress bool, metricsPath string, aopts []dctraffic.AnalyzeOption) (*dctraffic.Report, error) {
	cfg := runConfigFor(paper, racks, servers, duration, seed)
	runOpts, closeMetrics, err := simRunOptions(progress, metricsPath)
	if err != nil {
		return nil, err
	}
	aopts = append(aopts, dctraffic.WithRunOptions(runOpts...))
	_, rep, err := dctraffic.RunAnalyze(context.Background(), cfg, aopts...)
	if cerr := closeMetrics(); err == nil && cerr != nil {
		return nil, cerr
	}
	return rep, err
}

// analyzeTrace streams a trace file through the bounded-memory pipeline:
// records flow from the file source straight into the sweep's sliding
// window and online accumulators, so memory stays O(window) no matter
// how long the trace is. The topology and duration are cfg's, the run
// configuration the simulating paths would use. Run-only figures (5-8,
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
