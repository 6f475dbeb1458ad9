// Package core orchestrates the full reproduction pipeline: build a
// cluster, run the workload under instrumentation, and regenerate every
// table and figure of the paper from the collected logs.
//
// The entry points are Run (workload → socket-level logs), AnalyzeRun
// and AnalyzeSource (logs → Report, one field per figure), and
// RunAnalyze, which fuses the two. cmd/dcanalyze and bench_test.go are
// thin wrappers over these.
package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"dctraffic/internal/cosmos"
	"dctraffic/internal/eventlog"
	"dctraffic/internal/netsim"
	"dctraffic/internal/obs"
	"dctraffic/internal/sched"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// RunConfig assembles a full simulation.
type RunConfig struct {
	Topology topology.Config
	Store    cosmos.Config
	Sched    sched.Config
	Trace    trace.Config

	// Duration of the instrumented window.
	Duration netsim.Time

	// DrainTime lets in-flight work finish after the window (not
	// instrumented as part of Duration-based rates).
	DrainTime netsim.Time

	// UtilBinSize sizes the SNMP-like link counters (default 1 s).
	UtilBinSize netsim.Time

	// RateRecompute batches max-min recomputation for speed on long
	// runs (default exact).
	RateRecompute netsim.Time

	// Deprecated: Sequential has no effect. The simulator always runs
	// on one goroutine; the field remains for source compatibility.
	Sequential bool

	Seed uint64
}

// horizon is the simulated time a run ends at: the instrumented window
// plus the drain.
func (c RunConfig) horizon() netsim.Time { return c.Duration + c.DrainTime }

// SmallRun returns a laptop-scale configuration: the 80-server topology
// with a two-hour instrumented window.
func SmallRun() RunConfig {
	sc := sched.DefaultConfig()
	return RunConfig{
		Topology:    topology.SmallConfig(),
		Store:       cosmos.Config{ReplicationFactor: 3, ExtentBytes: 64 << 20},
		Sched:       sc,
		Duration:    2 * time.Hour,
		DrainTime:   30 * time.Minute,
		UtilBinSize: time.Second,
		Seed:        1,
	}
}

// PaperRun returns the paper-scale configuration: 75 racks × 20 servers
// and a full day. On a 2-CPU x86-64 host shared with other work,
// simulating and analyzing it (dcanalyze -paper) took 28–40 s over six
// runs, with 0.46–0.57 GB of peak live heap and 0.95–1.03 GiB of peak
// RSS. See EXPERIMENTS.md "One simulate-and-analyze path".
func PaperRun() RunConfig {
	sc := sched.DefaultConfig()
	sc.JobsPerHour = 900 // scale arrivals with cluster size
	sc.NumDatasets = 40
	return RunConfig{
		Topology:      topology.DefaultConfig(),
		Store:         cosmos.DefaultConfig(),
		Sched:         sc,
		Duration:      24 * time.Hour,
		DrainTime:     time.Hour,
		UtilBinSize:   time.Second,
		RateRecompute: 10 * time.Millisecond,
		Seed:          1,
	}
}

// RunResult carries everything a Run produced.
type RunResult struct {
	Config    RunConfig
	Top       *topology.Topology
	Net       *netsim.Network
	Cluster   *sched.Cluster
	Store     *cosmos.Store
	Collector *trace.Collector
	Log       *eventlog.Log

	// Metrics is the final observability snapshot: every netsim /
	// cosmos / scope / trace series plus wall-clock phase timings and
	// runtime samples. Nil when metrics collection was disabled with
	// WithObserver(nil).
	Metrics *obs.Snapshot
}

// Records returns the socket-level flow log: nil for a RunAnalyze
// result, whose collector streams each record to the analysis instead
// of logging it (Collector.NumRecords still counts them).
func (r *RunResult) Records() []trace.FlowRecord { return r.Collector.Records() }

// Source returns the flow log as a canonical-order trace.Source, the
// input AnalyzeSource streams over. Sorting cost aside, analyzing this
// source is bit-identical to analyzing the same records written to a
// trace file and read back through trace.FileSource.
func (r *RunResult) Source() *trace.SliceSource { return trace.NewSliceSource(r.Records()) }

// Progress is one run-loop progress report, delivered at simulated-time
// batch boundaries (see WithProgress).
type Progress struct {
	// SimTime is the current simulated time; SimDuration the total
	// (instrumented window plus drain).
	SimTime     netsim.Time
	SimDuration netsim.Time
	// WallElapsed is the wall-clock time since Run started.
	WallElapsed time.Duration

	Events         uint64 // simulator events processed so far
	QueueDepth     int    // pending events in the queue
	ActiveFlows    int
	FlowsStarted   int64
	FlowsCompleted int64
	Records        int // trace records collected
	Jobs           int // jobs submitted
	TotalBytes     float64
	HeapBytes      uint64 // live heap at the batch boundary
}

// Frac reports completed simulated time as a fraction in [0, 1].
func (p Progress) Frac() float64 {
	if p.SimDuration <= 0 {
		return 1
	}
	return float64(p.SimTime) / float64(p.SimDuration)
}

// runOptions collects the functional options of Run.
type runOptions struct {
	progress      func(Progress)
	progressEvery netsim.Time
	sink          io.Writer
	reg           *obs.Registry
	regSet        bool
	top           *topology.Topology
}

// RunOption configures Run.
type RunOption func(*runOptions)

// WithProgress delivers a Progress report at every simulated-time batch
// boundary (default every simulated minute; see WithProgressInterval).
// The callback runs on the goroutine that runs the event loop — the
// caller of Run, or of RunAnalyze — and must not mutate the run.
func WithProgress(fn func(Progress)) RunOption {
	return func(o *runOptions) { o.progress = fn }
}

// WithProgressInterval sets the simulated-time batch length: progress
// reports, runtime samples and context-cancellation checks all happen
// on these boundaries. Values ≤ 0 keep the default (one simulated
// minute). The interval does not affect simulation results — slicing
// the event loop is exact.
func WithProgressInterval(d netsim.Time) RunOption {
	return func(o *runOptions) { o.progressEvery = d }
}

// WithMetricsSink writes the final metrics snapshot as JSON to w when
// the run completes successfully.
func WithMetricsSink(w io.Writer) RunOption {
	return func(o *runOptions) { o.sink = w }
}

// WithObserver uses the caller's registry instead of a fresh one, so
// metrics can be read mid-run (from progress callbacks) or accumulated
// across runs. Passing nil disables metrics collection entirely
// (RunResult.Metrics will be nil) — by the obs determinism contract,
// results are bit-identical either way.
func WithObserver(reg *obs.Registry) RunOption {
	return func(o *runOptions) { o.reg = reg; o.regSet = true }
}

// WithPrebuiltTopology reuses an already-built topology instead of
// rebuilding it from RunConfig.Topology — the fleet executor's shared
// artifact cache hands identical configs the same immutable Topology so
// path precompute is paid once per distinct config, not once per run.
// The topology must have been built from a Config equal to the run's;
// prepareRun rejects a mismatch. Topology is immutable after New, so
// sharing one across concurrent runs is safe and cannot affect results.
func WithPrebuiltTopology(top *topology.Topology) RunOption {
	return func(o *runOptions) { o.top = top }
}

// Simulate builds the cluster, runs the workload for the configured
// duration plus drain, and returns the results. It is a thin wrapper
// over Run with a background context and default options.
func Simulate(cfg RunConfig) (*RunResult, error) {
	return Run(context.Background(), cfg)
}

// Run builds the cluster and runs the workload under socket-level
// instrumentation, with observability: the simulation advances in
// simulated-time batches, and at each batch boundary Run checks ctx,
// samples the Go runtime, and delivers a Progress report. On
// cancellation it returns an error wrapping ctx.Err() promptly (within
// one batch). The metrics snapshot lands in RunResult.Metrics.
func Run(ctx context.Context, cfg RunConfig, opts ...RunOption) (*RunResult, error) {
	p, err := prepareRun(cfg, opts...)
	if err != nil {
		return nil, err
	}
	return p.execute(ctx)
}

// preparedRun is a built-but-not-yet-run simulation: RunAnalyze splits
// Run at this seam so it can wire the collector's record sink and hand
// the RunResult to the analyzer before the event loop starts, and then
// lets the analysis step the event loop.
type preparedRun struct {
	rr *RunResult
	o  runOptions
	sw obs.Stopwatch

	// recordSink, when set, is fed the live record stream: each step
	// advances its watermark after its batch. Set between prepareRun and
	// the first step (see RunAnalyze).
	recordSink *trace.LiveSource

	// The event loop between steps: the simulated time reached, and the
	// "simulate" phase and its peak gauges, started by the first step.
	t                    netsim.Time
	stopSim              func()
	peakQueue, peakFlows *obs.Gauge
}

// prepareRun validates the config and builds the whole cluster —
// topology, network, collector, event log, store, scheduler — under the
// "build" obs phase, leaving the event loop to execute.
func prepareRun(cfg RunConfig, opts ...RunOption) (*preparedRun, error) {
	o := runOptions{progressEvery: time.Minute}
	for _, opt := range opts {
		opt(&o)
	}
	if !o.regSet {
		o.reg = obs.NewRegistry()
	}
	if o.progressEvery <= 0 {
		o.progressEvery = time.Minute
	}
	reg := o.reg
	sw := obs.NewStopwatch()

	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("core: non-positive duration %v", cfg.Duration)
	}
	if cfg.UtilBinSize <= 0 {
		cfg.UtilBinSize = time.Second
	}
	stopBuild := reg.StartPhase("build")
	top := o.top
	if top != nil && top.Config() != cfg.Topology {
		return nil, fmt.Errorf("core: prebuilt topology config %+v does not match run config %+v",
			top.Config(), cfg.Topology)
	}
	if top == nil {
		var err error
		top, err = topology.New(cfg.Topology)
		if err != nil {
			return nil, fmt.Errorf("core: topology: %w", err)
		}
	}
	net := netsim.New(top, netsim.Options{
		StatsBinSize:         cfg.UtilBinSize,
		MinRecomputeInterval: cfg.RateRecompute,
	})
	collector := trace.NewCollector(top, cfg.Trace)
	net.AddObserver(collector)
	log := &eventlog.Log{}
	store := cosmos.NewStore(top, cfg.Store, stats.NewRNG(cfg.Seed).Fork("store"))
	schedCfg := cfg.Sched
	if schedCfg.Seed == 0 {
		schedCfg.Seed = cfg.Seed
	}
	cluster := sched.NewCluster(net, store, log, schedCfg)
	net.Instrument(reg)
	store.Instrument(reg)
	cluster.Instrument(reg)
	collector.Instrument(reg)
	cluster.Start(cfg.Duration)
	stopBuild()

	rr := &RunResult{
		Config:    cfg,
		Top:       top,
		Net:       net,
		Cluster:   cluster,
		Store:     store,
		Collector: collector,
		Log:       log,
	}
	return &preparedRun{rr: rr, o: o, sw: sw}, nil
}

// execute runs the prepared simulation's event loop to completion.
func (p *preparedRun) execute(ctx context.Context) (*RunResult, error) {
	for {
		done, err := p.step(ctx)
		if err != nil {
			return nil, err
		}
		if done {
			return p.rr, nil
		}
	}
}

// step runs the next batch of the event loop, then advances the record
// sink's watermark and reports progress. Slicing is exact: running to
// t1 then t2 executes the same events in the same order as one run to
// t2, so batch size affects only observability granularity. The call
// after the last batch flushes the network, ends the "simulate" phase,
// finalizes the metrics snapshot and reports done.
func (p *preparedRun) step(ctx context.Context) (done bool, err error) {
	o := &p.o
	reg := o.reg
	rr := p.rr
	net, collector, cluster := rr.Net, rr.Collector, rr.Cluster
	total := rr.Config.horizon()
	if p.stopSim == nil {
		p.stopSim = reg.StartPhase("simulate")
		p.peakQueue = reg.Gauge("netsim.queue_depth_peak")
		p.peakFlows = reg.Gauge("netsim.active_flows_peak")
	}
	if p.t >= total {
		net.Flush()
		p.stopSim()
		if reg != nil {
			reg.SampleRuntime()
			rr.Metrics = reg.Snapshot()
			if o.sink != nil {
				if err := rr.Metrics.WriteJSON(o.sink); err != nil {
					return true, fmt.Errorf("core: metrics sink: %w", err)
				}
			}
		}
		return true, nil
	}
	if err := ctx.Err(); err != nil {
		return false, fmt.Errorf("core: run canceled at simulated %v: %w", net.Now(), err)
	}
	p.t = min(p.t+o.progressEvery, total)
	t := p.t
	net.Run(t)
	if p.recordSink != nil {
		// After Run(t) every pending event is strictly later than t,
		// so a record not yet emitted has Start > t or belongs to a
		// still-active flow; min(t+1, earliest active Start) is a
		// sound release watermark (see trace.LiveSource).
		w := t + 1
		if s, ok := net.EarliestActiveStart(); ok && s < w {
			w = s
		}
		p.recordSink.Advance(w)
	}
	p.peakQueue.SetMax(float64(net.Pending()))
	p.peakFlows.SetMax(float64(net.ActiveFlows()))
	var heap uint64
	if reg != nil || o.progress != nil {
		heap = reg.SampleRuntime().HeapBytes
	}
	if o.progress != nil {
		o.progress(Progress{
			SimTime:        t,
			SimDuration:    total,
			WallElapsed:    p.sw.Elapsed(),
			Events:         net.EventsProcessed(),
			QueueDepth:     net.Pending(),
			ActiveFlows:    net.ActiveFlows(),
			FlowsStarted:   net.FlowsStarted(),
			FlowsCompleted: net.FlowsCompleted(),
			Records:        collector.NumRecords(),
			Jobs:           len(cluster.Jobs()),
			TotalBytes:     net.TotalBytes(),
			HeapBytes:      heap,
		})
	}
	return false, nil
}
