// Command dcsim runs the datacenter cluster simulation under socket-level
// instrumentation and writes the collected flow records as JSON lines —
// the measurement half of the paper's pipeline.
//
// Usage:
//
//	dcsim -racks 8 -servers 10 -duration 2h -seed 1 -out trace.jsonl
//
// Paper scale is -racks 75 -servers 20 -duration 24h (minutes of wall
// clock; see EXPERIMENTS.md for measured peak heap). Add -progress for
// live status, -metrics m.json to dump the observability snapshot, and
// -pprof addr to serve net/http/pprof while the run is in flight.
// Ctrl-C cancels the run promptly at the next event-loop batch boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"time"

	"dctraffic"
)

func main() {
	racks := flag.Int("racks", 8, "number of racks")
	servers := flag.Int("servers", 10, "servers per rack")
	duration := flag.Duration("duration", 2*time.Hour, "instrumented window")
	drain := flag.Duration("drain", 30*time.Minute, "extra time to let work finish")
	seed := flag.Uint64("seed", 1, "simulation seed")
	jobsPerHour := flag.Float64("jobs", 0, "job arrivals per hour (0 = scale with cluster)")
	out := flag.String("out", "trace.jsonl", "output flow-record file (- for stdout)")
	full := flag.Bool("full-recompute", false, "disable the incremental allocator (A/B timing; results are identical)")
	progress := flag.Bool("progress", false, "print a status line per simulated 10 minutes")
	metrics := flag.String("metrics", "", "write the final metrics snapshot (JSON) to this file")
	noMetrics := flag.Bool("no-metrics", false, "disable metrics collection entirely (A/B determinism; results are identical)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	cfg := dctraffic.SmallRun()
	cfg.Topology.Racks = *racks
	cfg.Topology.ServersPerRack = *servers
	cfg.Duration = *duration
	cfg.DrainTime = *drain
	cfg.Seed = *seed
	if *jobsPerHour > 0 {
		cfg.Sched.JobsPerHour = *jobsPerHour
	} else {
		// Keep per-server load comparable to the 80-server default.
		cfg.Sched.JobsPerHour = 150 * float64(*racks**servers) / 80
	}
	cfg.Sched.Seed = *seed
	cfg.FullRecompute = *full

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "dcsim: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var opts []dctraffic.RunOption
	if *progress {
		opts = append(opts,
			dctraffic.WithProgressInterval(10*time.Minute),
			dctraffic.WithProgress(func(p dctraffic.Progress) {
				fmt.Fprintf(os.Stderr, "sim %6v/%v (%3.0f%%)  wall %7v  events %9d  flows %7d/%d active %4d  records %7d  heap %4.0f MB\n",
					p.SimTime.Round(time.Minute), p.SimDuration, 100*p.Frac(),
					p.WallElapsed.Round(100*time.Millisecond), p.Events,
					p.FlowsCompleted, p.FlowsStarted, p.ActiveFlows,
					p.Records, float64(p.HeapBytes)/(1<<20))
			}))
	}
	var metricsFile *os.File
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcsim:", err)
			os.Exit(1)
		}
		metricsFile = f
		opts = append(opts, dctraffic.WithMetricsSink(f))
	}
	if *noMetrics {
		opts = append(opts, dctraffic.WithObserver(nil))
	}

	start := time.Now()
	rr, err := dctraffic.Run(ctx, cfg, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simulated %v over %d servers in %v wall clock\n",
		*duration, rr.Top.NumServers(), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "jobs: %d   flows: %d   bytes: %.1f GB\n",
		len(rr.Cluster.Jobs()), len(rr.Records()), rr.Net.TotalBytes()/1e9)
	o := rr.Collector.Overhead(cfg.Duration)
	fmt.Fprintf(os.Stderr, "instrumentation: %.2f%% cpu, %.2f%% disk, %.2f GB logs/server/day\n",
		o.MedianCPUPct, o.MedianDiskPct, o.LogBytesPerServerPerDay/1e9)
	if metricsFile != nil {
		if err := metricsFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dcsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote metrics snapshot to %s\n", *metrics)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	tw := dctraffic.NewTraceWriter(w)
	records := rr.Records()
	for i := range records {
		if err := tw.Write(&records[i]); err != nil {
			fmt.Fprintln(os.Stderr, "dcsim:", err)
			os.Exit(1)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", len(records), *out)
	}
}
