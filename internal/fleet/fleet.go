// Package fleet is the deterministic batch executor: it runs N fused
// simulate+analyze pipelines (core.RunAnalyze) concurrently under a
// concurrency cap and one memory budget, and merges their reports and
// metrics in config order. Each admitted run gets one goroutine, which
// drives core.RunAnalyze; the goroutines that pipeline starts (its
// simulator, its analysis pool, its compression meter) are the run's
// own, and the Go scheduler shares the cores between runs.
//
// The three-rule determinism contract of internal/core extends across
// runs:
//
//  1. Runs are independent domains — no shared mutable state. Each run
//     gets its own registries, collector, RNGs; the only shared objects
//     are immutable (cached topologies).
//  2. Per-run outputs are disjoint slots: outcome i is written only by
//     run i's goroutine, before its completion is signaled.
//  3. Fleet output is a fixed-order merge keyed by config index, on the
//     coordinator, after every run completes.
//
// Under these rules fleet concurrency and memory budget can only
// reorder wall-clock execution — every per-run report digest is
// bit-identical to running that config standalone.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dctraffic/internal/core"
	"dctraffic/internal/obs"
)

// RunSpec is one sweep entry: a config plus a display name (dcsweep
// derives names like "seed1-tree"; an empty name falls back to the
// index).
type RunSpec struct {
	Name   string
	Config core.RunConfig
}

// Options tunes the executor. The zero value runs every pipeline with
// defaults: concurrency sized by GOMAXPROCS, memory budget derived
// from GOMEMLIMIT (none when unlimited).
type Options struct {
	// Concurrency caps the pipelines in flight (0 = GOMAXPROCS,
	// clamped to the spec count). Admission is in config order.
	Concurrency int

	// MaxHeapMB caps the summed EstimatePeakMB of in-flight runs.
	// 0 derives a budget from GOMEMLIMIT via DefaultBudgetMB;
	// negative disables the gate.
	MaxHeapMB int

	// AnalyzeOpts is appended to every run's RunAnalyze options —
	// figure knobs, CDF caps and the like. Options that would collide
	// with the executor's own wiring (WithRunOptions,
	// WithAnalysisObserver) must not be passed here.
	AnalyzeOpts []core.AnalyzeOption

	// OnRunDone, when set, is called as each run finishes, serialized
	// under a lock (completion order, not config order — the merged
	// Result is the deterministic view).
	OnRunDone func(RunOutcome)
}

// RunOutcome is one run's merged slot in Result.Outcomes.
type RunOutcome struct {
	Index  int
	Name   string
	Config core.RunConfig

	Report *core.Report
	Digest string // core.ReportDigest of Report; "" on error
	Err    error

	WallSeconds  float64
	EstMB        int   // the admission estimate charged for this run
	Waited       bool  // blocked on the memory gate before launch
	Records      int64 // trace records analyzed (analyze.records_total)
	PeakBuffered int64 // live reorder-buffer peak (analyze.stream.peak_buffered_records)

	// SimMetrics and AnalyzeMetrics are the run's two registry
	// snapshots (the simulation and analysis sides of the fused
	// pipeline drive separate registries; obs registries are
	// single-goroutine).
	SimMetrics     *obs.Snapshot
	AnalyzeMetrics *obs.Snapshot
}

// Result is the fixed-order merge of a sweep.
type Result struct {
	Outcomes []RunOutcome // indexed by config position, always len(specs)
	Failed   int          // runs with a non-nil Err

	// Metrics is the merged fleet snapshot: fleet.* scheduler series,
	// an unprefixed cross-run aggregate (counters summed, gauges maxed)
	// so subsystem prefix checks keep working, and every run's
	// registries under runN. prefixes.
	Metrics *obs.Snapshot
}

// Execute runs every spec's fused RunAnalyze pipeline under the
// concurrency cap and the memory-budget gate, and returns the
// config-order merge. Per-run failures (including cancellation) land in
// their outcome's Err and count toward Result.Failed; Execute itself
// errors only on internal merge failure. Per-run reports are
// bit-identical to standalone core.RunAnalyze at any concurrency or
// budget — see the package contract.
func Execute(ctx context.Context, specs []RunSpec, opts Options) (*Result, error) {
	conc := opts.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	if conc > len(specs) {
		conc = len(specs)
	}
	if conc < 1 {
		conc = 1
	}
	budget := opts.MaxHeapMB
	if budget == 0 {
		budget = DefaultBudgetMB()
	}

	gate := newMemGate(budget)
	cache := newTopoCache()

	outcomes := make([]RunOutcome, len(specs))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	var doneMu sync.Mutex
	for i, sp := range specs {
		est := EstimatePeakMB(sp.Config)
		if err := ctx.Err(); err != nil {
			outcomes[i] = RunOutcome{Index: i, Name: specName(i, sp), Config: sp.Config, EstMB: est,
				Err: fmt.Errorf("fleet: run not started: %w", err)}
			continue
		}
		sem <- struct{}{}      // concurrency admission, config order
		w := gate.acquire(est) // memory admission, config order
		wg.Add(1)
		go func(i int, sp RunSpec, est int, waited bool) {
			defer wg.Done()
			defer func() { gate.release(est); <-sem }()
			out := executeOne(ctx, i, sp, cache, opts)
			out.EstMB = est
			out.Waited = waited
			outcomes[i] = out // disjoint slot, written before wg.Done
			if opts.OnRunDone != nil {
				doneMu.Lock()
				opts.OnRunDone(out)
				doneMu.Unlock()
			}
		}(i, sp, est, w)
	}
	wg.Wait()

	res := &Result{Outcomes: outcomes}
	parts := make([]obs.SnapshotPart, 0, 2+2*len(outcomes))
	var runSnaps []*obs.Snapshot
	for i := range outcomes {
		o := &outcomes[i]
		if o.Err != nil {
			res.Failed++
		}
		prefix := fmt.Sprintf("run%d.", i)
		parts = append(parts,
			obs.SnapshotPart{Prefix: prefix, Snap: o.SimMetrics},
			obs.SnapshotPart{Prefix: prefix, Snap: o.AnalyzeMetrics})
		runSnaps = append(runSnaps, o.SimMetrics, o.AnalyzeMetrics)
	}
	hits, misses := cache.stats()
	fleetReg := obs.NewRegistry()
	fleetReg.Counter("fleet.runs_total").Add(int64(len(outcomes)))
	fleetReg.Counter("fleet.runs_failed_total").Add(int64(res.Failed))
	fleetReg.Gauge("fleet.concurrency").Set(float64(conc))
	fleetReg.Gauge("fleet.budget_mb").Set(float64(max(budget, 0)))
	fleetReg.Counter("fleet.admission_waits_total").Add(int64(gate.waitCount()))
	fleetReg.Counter("fleet.topo_cache_hits_total").Add(int64(hits))
	fleetReg.Counter("fleet.topo_cache_misses_total").Add(int64(misses))
	merged, err := obs.MergeSnapshots(append([]obs.SnapshotPart{
		{Snap: fleetReg.Snapshot()},
		{Snap: obs.AggregateSnapshots(runSnaps...)},
	}, parts...)...)
	if err != nil {
		return nil, fmt.Errorf("fleet: merge metrics: %w", err)
	}
	res.Metrics = merged
	return res, nil
}

// executeOne runs one spec's pipeline with the cached topology
// injected. Everything it touches is run-local except the topology
// (immutable).
func executeOne(ctx context.Context, i int, sp RunSpec, cache *topoCache, opts Options) (out RunOutcome) {
	out = RunOutcome{Index: i, Name: specName(i, sp), Config: sp.Config}
	sw := obs.NewStopwatch()
	// Named return: the deferred stamp lands in the returned value.
	defer func() { out.WallSeconds = sw.Elapsed().Seconds() }()

	runReg := obs.NewRegistry()
	aReg := obs.NewRegistry()
	top, err := cache.get(sp.Config.Topology)
	if err != nil {
		out.Err = fmt.Errorf("fleet: run %d (%s): %w", i, out.Name, err)
		return out
	}
	aopts := append([]core.AnalyzeOption{
		core.WithRunOptions(core.WithObserver(runReg), core.WithPrebuiltTopology(top)),
		core.WithAnalysisObserver(aReg),
	}, opts.AnalyzeOpts...)

	rr, rep, err := core.RunAnalyze(ctx, sp.Config, aopts...)
	out.AnalyzeMetrics = aReg.Snapshot()
	if rr != nil {
		out.SimMetrics = rr.Metrics // snapshotted by the run's own goroutine
	}
	if out.AnalyzeMetrics != nil {
		out.Records = int64(out.AnalyzeMetrics.Value("analyze.records_total"))
		out.PeakBuffered = int64(out.AnalyzeMetrics.Value("analyze.stream.peak_buffered_records"))
	}
	if err != nil {
		out.Err = fmt.Errorf("fleet: run %d (%s): %w", i, out.Name, err)
		return out
	}
	out.Report = rep
	digest, err := core.ReportDigest(rep)
	if err != nil {
		out.Err = fmt.Errorf("fleet: run %d (%s): digest: %w", i, out.Name, err)
		return out
	}
	out.Digest = digest
	return out
}

func specName(i int, sp RunSpec) string {
	if sp.Name != "" {
		return sp.Name
	}
	return fmt.Sprintf("run%d", i)
}
