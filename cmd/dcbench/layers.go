package main

import (
	"context"
	"runtime"
	"time"

	"dctraffic/internal/core"
	"dctraffic/internal/fleet"
	"dctraffic/internal/netsim"
	"dctraffic/internal/obs"
	"dctraffic/internal/replay"
	"dctraffic/internal/tm"
	"dctraffic/internal/tomo"
)

// layerMetrics derives the per-layer metrics of a traced op from the obs
// snapshots its runs produced, the hook samples and the spans. A layer
// the workload's op does not run reads 0.
func layerMetrics(in *inputs, outs []runOut, tr *tracer, ms0, ms1 *runtime.MemStats) map[string]float64 {
	m := make(map[string]float64, len(layerMetricDefs))
	for _, d := range layerMetricDefs {
		m[d.name] = 0
	}
	var sims, ans []*obs.Snapshot
	for _, o := range outs {
		sims = append(sims, o.sim)
		ans = append(ans, o.an)
	}
	sum := func(snaps []*obs.Snapshot, name string) float64 {
		var s float64
		for _, sn := range snaps {
			s += sn.Value(name)
		}
		return s
	}
	peak := func(snaps []*obs.Snapshot, name string) float64 {
		var p float64
		for _, sn := range snaps {
			p = max(p, sn.Value(name))
		}
		return p
	}
	mean := func(snaps []*obs.Snapshot, name string) float64 {
		var s float64
		var n int64
		for _, sn := range snaps {
			h, _ := sn.Get(name)
			s += h.Sum
			n += h.Count
		}
		return ratio(s, float64(n))
	}
	phase := func(snaps []*obs.Snapshot, name string) float64 {
		var s float64
		for _, sn := range snaps {
			if sn == nil {
				continue
			}
			for _, p := range sn.Phases {
				if p.Name == name {
					s += p.Seconds
				}
			}
		}
		return s
	}

	m["topology.build_ms"] = in.buildMs

	m["sim.simulate_s"] = phase(sims, "simulate")
	m["sim.events"] = sum(sims, "netsim.events_total")
	m["sim.ns_per_event"] = ratio(m["sim.simulate_s"]*1e9, m["sim.events"])
	m["sim.batch_ms_p50"] = percentile(tr.batchMs, 50)
	m["sim.batch_ms_p99"] = percentile(tr.batchMs, 99)
	m["sim.recomputes"] = sum(sims, "netsim.recomputes_dirty_total") + sum(sims, "netsim.recomputes_full_total")
	m["sim.component_links_mean"] = mean(sims, "netsim.recompute_component_links")
	m["sim.parallel_windows"] = sum(sims, "netsim.parallel.windows_total")
	m["sim.barrier_waits"] = sum(sims, "netsim.parallel.barrier_waits_total")
	m["sim.records"] = sum(sims, "trace.records_total")
	m["sim.jobs"] = sum(sims, "scope.jobs_submitted_total")

	m["seam.buffered_peak"] = peak(sims, "trace.live.buffered_peak")
	m["seam.backpressure_waits"] = sum(sims, "pipeline.backpressure_waits")
	m["seam.watermark_lag_s_mean"] = mean(sims, "trace.live.watermark_lag_seconds")

	m["analyze.index_s"] = phase(ans, "analyze.index")
	m["analyze.figures_s"] = phase(ans, "analyze.figures")
	m["analyze.congestion_s"] = phase(ans, "analyze.congestion")
	m["analyze.tasks"] = sum(ans, "analyze.tasks_total")
	m["analyze.records"] = sum(ans, "analyze.records_total")
	m["analyze.peak_buffered_records"] = peak(ans, "analyze.stream.peak_buffered_records")
	m["analyze.window_ms_p50"] = percentile(tr.windowMs, 50)
	m["analyze.window_ms_p99"] = percentile(tr.windowMs, 99)

	warm, cold := sum(ans, "tomo.windows_warm"), sum(ans, "tomo.windows_cold")
	m["tomo.windows"] = warm + cold
	m["tomo.warm_ratio"] = ratio(warm, warm+cold)
	m["tomo.windows_fallback"] = sum(ans, "tomo.windows_fallback")
	m["tomo.pivots_mean"] = mean(ans, "tomo.pivots_per_window")
	m["tomo.refactorizations_mean"] = mean(ans, "tomo.refactorizations_per_window")

	if in.tracePath != "" {
		m["trace.write_s"] = in.writeS
		m["trace.file_mb"] = in.fileMB
		m["trace.open_s"] = tr.duration("trace.OpenFile")
		m["trace.decode_ns_per_record"] = ratio(m["trace.open_s"]*1e9, m["analyze.records"])
		m["trace.analyze_s"] = tr.duration("core.AnalyzeSource")
	}

	if tr.fleet != nil {
		m["fleet.runs"] = tr.fleet.Value("fleet.runs_total")
		m["fleet.run_wall_s_p50"] = percentile(tr.fleetWalls, 50)
		m["fleet.run_wall_s_max"] = percentile(tr.fleetWalls, 100)
		m["fleet.pool_tasks"] = tr.fleet.Value("fleet.pool.tasks_total")
		m["fleet.pool_queue_peak"] = tr.fleet.Value("fleet.pool.queue_peak")
		m["fleet.admission_waits"] = tr.fleet.Value("fleet.admission_waits_total")
		m["fleet.topo_cache_hits"] = tr.fleet.Value("fleet.topo_cache_hits_total")
	}

	const mib = 1 << 20
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["runtime.heap_peak_mb"] = max(tr.heapPeak, peak(sims, "runtime.heap_peak_bytes")) / mib
	return m
}

// probe runs the out-of-band measurements of a traced run after its op.
// For simulating workloads: the simulator, analysis-pool and fused A/Bs
// over every config of the op, the fleet A/B for sweep, and the netsim
// replay and tomography re-solve of the first config. For trace-stream:
// the analysis-pool A/B on its file op. Each A/B is one sample:
// ab.x = 1 − default wall ÷ alternative wall, so a positive value means
// the default path pays.
func probe(ctx context.Context, w *workload, in *inputs, tr *tracer, opWall float64, m map[string]float64) error {
	timed := func(name string, fn func() error) (float64, error) {
		tr.root = tr.begin(name, 0)
		defer func() { tr.end(tr.root); tr.root = 0 }()
		t0 := time.Now()
		err := fn()
		return time.Since(t0).Seconds(), err
	}

	if !w.simulates {
		def, err := timed("ab.analyze_default", func() error { _, err := analyzeFile(ctx, in, nil); return err })
		if err != nil {
			return err
		}
		seq, err := timed("ab.analyze_sequential", func() error {
			_, err := analyzeFile(ctx, in, nil, core.WithSequential())
			return err
		})
		m["ab.analyze_pool_gain"] = 1 - ratio(def, seq)
		return err
	}

	// A/B walls, summed over the op's configs: simulate with the default
	// and the sequential engine, analyze with the default pool and one
	// worker, and the fused pipeline.
	var simDef, simSeq, anDef, anSeq, fused, sim0 float64
	var rr0 *core.RunResult
	for i, cfg := range in.cfgs {
		var rr *core.RunResult
		d, err := timed("ab.simulate_default", func() (err error) {
			rr, err = core.Run(ctx, cfg)
			return err
		})
		if err != nil {
			return err
		}
		simDef += d
		if i == 0 {
			rr0, sim0 = rr, d
		}
		seqCfg := cfg
		seqCfg.Sequential = true
		d, err = timed("ab.simulate_sequential", func() error { _, err := core.Run(ctx, seqCfg); return err })
		if err != nil {
			return err
		}
		simSeq += d
		d, err = timed("ab.analyze_default", func() error { _, err := core.AnalyzeRun(ctx, rr); return err })
		if err != nil {
			return err
		}
		anDef += d
		d, err = timed("ab.analyze_sequential", func() error {
			_, err := core.AnalyzeRun(ctx, rr, core.WithSequential())
			return err
		})
		if err != nil {
			return err
		}
		anSeq += d
		d, err = timed("ab.fused", func() error { _, _, err := core.RunAnalyze(ctx, cfg); return err })
		if err != nil {
			return err
		}
		fused += d
	}
	m["ab.pdes_gain"] = 1 - ratio(simDef, simSeq)
	m["ab.analyze_pool_gain"] = 1 - ratio(anDef, anSeq)
	m["ab.fused_gain"] = 1 - ratio(fused, simDef+anDef)

	// The network layer alone: the first run's flows replayed open-loop
	// on the same fabric, without the workload model. The residual
	// estimates the workload model's (sched, scope, cosmos) share of
	// simulate.
	rr, c0 := rr0, in.cfgs[0]
	var events uint64
	rs, err := timed("probe.replay", func() error {
		res, err := replay.Run(rr.Records(), rr.Top, replay.Options{Net: netsim.Options{
			StatsBinSize:         c0.UtilBinSize,
			MinRecomputeInterval: c0.RateRecompute,
		}})
		if err == nil {
			events = res.Net.EventsProcessed()
		}
		return err
	})
	if err != nil {
		return err
	}
	m["netsim.replay_s"] = rs
	m["netsim.replay_ns_per_event"] = ratio(rs*1e9, float64(events))
	m["workload.residual_s"] = sim0 - rs

	timed("probe.tomo", func() error { tomoProbe(rr, tr, m); return nil })

	if w.name == "sweep" {
		serial, err := timed("ab.fleet_serial", func() error {
			_, err := runFleet(ctx, in.cfgs, fleet.Options{Concurrency: 1}, nil)
			return err
		})
		if err != nil {
			return err
		}
		m["ab.fleet_gain"] = 1 - ratio(opWall, serial)
	}
	return nil
}

// tomoProbe re-solves the run's tomography windows in one warm-started
// estimator chain, as the analysis does, timing each solver call. Like
// the analysis, it skips a window a solver rejects.
func tomoProbe(rr *core.RunResult, tr *tracer, m map[string]float64) {
	opts := core.AnalyzeOptions{}.ApplyDefaults(rr.Config.Duration)
	series := tm.TorSeries(rr.Records(), rr.Top, opts.TomoBin, rr.Config.Duration)
	if len(series) > opts.TomoMaxTMs {
		series = series[:opts.TomoMaxTMs]
	}
	est := tomo.NewProblem(rr.Top).NewEstimator(tomo.EstimatorOptions{})
	var b, x, g []float64
	var smMs, tgMs []float64
	var totalMs float64
	var err error
	for _, win := range series {
		if win.Total() <= 0 {
			continue
		}
		b = est.LinkCountsInto(b, win)
		id := tr.begin("tomo.tomogravity", -1)
		t0 := time.Now()
		g, err = est.TomogravityInto(g, b)
		d := msSince(t0)
		tr.end(id)
		totalMs += d
		if err != nil {
			continue
		}
		tgMs = append(tgMs, d)
		id = tr.begin("tomo.sparsity_max", -1)
		t0 = time.Now()
		x, err = est.SparsityMaxInto(x, b)
		d = msSince(t0)
		tr.end(id)
		totalMs += d
		if err == nil {
			smMs = append(smMs, d)
		}
	}
	m["tomo.sparsity_ms_p50"] = percentile(smMs, 50)
	m["tomo.sparsity_ms_max"] = percentile(smMs, 100)
	m["tomo.tomogravity_ms_p50"] = percentile(tgMs, 50)
	m["tomo.tomogravity_ms_max"] = percentile(tgMs, 100)
	m["tomo.solve_s"] = totalMs / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
