// Package dctraffic reproduces "The Nature of Datacenter Traffic:
// Measurements & Analysis" (Kandula, Sengupta, Greenberg, Patel, Chaiken —
// IMC 2009) as a runnable system: a cluster simulator whose Cosmos/Scope-
// style workload generates the paper's traffic, the socket-level
// instrumentation methodology of §2, the complete analysis suite of §4
// (traffic matrices, flow statistics, congestion, application impact),
// the tomography study of §5, and the reusable empirical traffic model of
// §4.1.
//
// Quick start:
//
//	rr, err := dctraffic.Run(ctx, dctraffic.SmallRun(),
//		dctraffic.WithProgress(func(p dctraffic.Progress) { ... }))
//	if err != nil { ... }
//	report, err := dctraffic.AnalyzeRun(ctx, rr)
//	if err != nil { ... }
//	fmt.Println(report.Text())
//
// Run is context-aware (cancellation is honored at event-loop batch
// boundaries) and observable: RunResult.Metrics carries the final
// snapshot of every netsim/cosmos/scope/trace series plus wall-clock
// phase timings, and WithProgress / WithMetricsSink / WithObserver tune
// what is reported where. Simulate is the options-free shorthand.
//
// Analysis takes the same functional-option shape: AnalyzeRun for a
// completed run, AnalyzeSource for a trace file streamed in bounded
// memory (see OpenTraceFile), with WithInactivityTimeout and friends
// tuning the figures. Each analysis runs on the goroutine that calls
// it.
//
// RunAnalyze fuses the two phases on the caller's goroutine: the
// analysis pulls records through a watermarked reorder buffer and steps
// the simulation whenever it needs more, so figure work interleaves
// with the simulation and no record log is kept — same report, bit for
// bit:
//
//	rr, report, err := dctraffic.RunAnalyze(ctx, dctraffic.SmallRun())
//	if err != nil { ... }
//	fmt.Println(report.Text())
//
// The Report contains one field per figure in the paper; EXPERIMENTS.md
// records paper-vs-measured values. For standalone synthetic traffic
// generation (no cluster simulation), use PaperModelFor / FitModel.
package dctraffic

import (
	"context"
	"io"

	"dctraffic/internal/core"
	"dctraffic/internal/model"
	"dctraffic/internal/netsim"
	"dctraffic/internal/obs"
	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// Core pipeline types, re-exported for direct use.
type (
	// RunConfig assembles a simulation (topology, store, workload,
	// instrumentation, duration).
	RunConfig = core.RunConfig
	// RunResult carries the simulated cluster and its collected logs.
	RunResult = core.RunResult
	// AnalyzeOption configures AnalyzeRun/AnalyzeSource (see the WithX
	// analysis options below).
	AnalyzeOption = core.AnalyzeOption
	// StreamProgress reports the streaming analysis sweep's position and
	// buffered-record high-water mark (see WithAnalyzeProgress).
	StreamProgress = core.StreamProgress
	// TraceSource is a canonical-order stream of flow records —
	// AnalyzeSource's input. RunResult.Source and OpenTraceFile return
	// implementations.
	TraceSource = trace.Source
	// Report holds regenerated data for every figure of the paper.
	Report = core.Report

	// RunOption configures Run (see WithProgress, WithMetricsSink,
	// WithObserver, WithProgressInterval).
	RunOption = core.RunOption
	// Progress is one run-loop progress report.
	Progress = core.Progress
	// Registry is the observability layer's metrics registry.
	Registry = obs.Registry
	// MetricsSnapshot is the exported state of a Registry.
	MetricsSnapshot = obs.Snapshot

	// FlowRecord is the socket-level log's view of one flow.
	FlowRecord = trace.FlowRecord
	// TraceWriter streams flow records to a writer one JSON line at a
	// time.
	TraceWriter = trace.Writer
	// TraceReader streams flow records from a JSONL trace.
	TraceReader = trace.Reader
	// Matrix is a sparse traffic matrix.
	Matrix = tm.Matrix
	// ModelParams is the §4.1 empirical traffic model.
	ModelParams = model.Params
	// TMSeriesGen generates correlated sequences of window TMs.
	TMSeriesGen = model.SeriesGen
	// FlowShape controls TM-to-flow decomposition in the model.
	FlowShape = model.FlowShape
	// TopologyConfig parameterizes the cluster fabric.
	TopologyConfig = topology.Config
	// ClusterShape names the dimensions of a simulated cluster.
	ClusterShape = model.ClusterShape
	// Time is simulation time (an offset from run start).
	Time = netsim.Time
	// RNG is a deterministic random stream.
	RNG = stats.RNG
)

// SmallRun returns the laptop-scale run configuration (80 servers, 2 h).
func SmallRun() RunConfig { return core.SmallRun() }

// PaperRun returns the paper-scale configuration (1500 servers, 24 h).
// On a 2-CPU x86-64 host, `dcanalyze -paper` simulated and analyzed it
// in 28–40 s over six runs, with 0.46–0.57 GB of peak live heap and
// 0.95–1.03 GiB of peak RSS (EXPERIMENTS.md "One simulate-and-analyze
// path").
func PaperRun() RunConfig { return core.PaperRun() }

// Run builds the cluster and runs the workload under socket-level
// instrumentation. It honors ctx cancellation at event-loop batch
// boundaries and collects an observability snapshot into
// RunResult.Metrics; see WithProgress, WithMetricsSink and WithObserver.
// Attaching or detaching observability never changes simulation
// results: same seed, same trace, bit for bit.
func Run(ctx context.Context, cfg RunConfig, opts ...RunOption) (*RunResult, error) {
	return core.Run(ctx, cfg, opts...)
}

// Simulate builds the cluster and runs the workload under socket-level
// instrumentation. It is shorthand for Run with a background context and
// default options.
func Simulate(cfg RunConfig) (*RunResult, error) { return core.Simulate(cfg) }

// WithProgress delivers a Progress report at every simulated-time batch
// boundary (default every simulated minute).
func WithProgress(fn func(Progress)) RunOption { return core.WithProgress(fn) }

// WithProgressInterval sets the simulated-time batch length used for
// progress reports, runtime samples and cancellation checks. It never
// affects simulation results.
func WithProgressInterval(d Time) RunOption { return core.WithProgressInterval(d) }

// WithMetricsSink writes the final metrics snapshot as JSON to w when
// the run completes.
func WithMetricsSink(w io.Writer) RunOption { return core.WithMetricsSink(w) }

// WithObserver uses the caller's registry for the run's metrics; nil
// disables metrics collection entirely.
func WithObserver(reg *Registry) RunOption { return core.WithObserver(reg) }

// NewRegistry returns an empty metrics registry for WithObserver.
func NewRegistry() *Registry { return obs.NewRegistry() }

// ReadMetrics parses a JSON metrics snapshot (the WithMetricsSink /
// `dcsim -metrics` format).
func ReadMetrics(r io.Reader) (*MetricsSnapshot, error) { return obs.ReadSnapshot(r) }

// AnalyzeRun regenerates every figure of the paper from a run. The
// pipeline streams the run's records through the same bounded-memory
// sweep AnalyzeSource uses, on the calling goroutine; results are
// bit-identical to analyzing a written-out trace of the same run.
func AnalyzeRun(ctx context.Context, rr *RunResult, opts ...AnalyzeOption) (*Report, error) {
	return core.AnalyzeRun(ctx, rr, opts...)
}

// AnalyzeSource regenerates the record-derived figures from a flow
// stream in bounded memory — the entry point for analyzing written-out
// traces too big to materialize. Requires WithAnalyzeTopology and
// WithAnalyzeDuration (AnalyzeRun fills both from the run).
func AnalyzeSource(ctx context.Context, src TraceSource, opts ...AnalyzeOption) (*Report, error) {
	return core.AnalyzeSource(ctx, src, opts...)
}

// RunAnalyze runs the simulation and the analysis as one fused
// pipeline on the caller's goroutine: the simulator's completed flows
// stream through a watermarked reorder buffer straight into the
// analysis sweep, which steps the simulation one batch whenever it
// needs more records, so the figures compute while the cluster still
// runs. The report is bit-identical to Run followed by AnalyzeRun at
// any GOMAXPROCS. The returned RunResult keeps no record log: its
// Records is nil, and AnalyzeRun rejects it. Cancellation of ctx or a
// simulation error is returned as the simulator reports it; an
// analysis error stops the run where it stands.
func RunAnalyze(ctx context.Context, cfg RunConfig, opts ...AnalyzeOption) (*RunResult, *Report, error) {
	return core.RunAnalyze(ctx, cfg, opts...)
}

// WithRunOptions forwards run options (WithProgress, WithObserver,
// WithMetricsSink, ...) to the simulation phase of RunAnalyze.
func WithRunOptions(opts ...RunOption) AnalyzeOption { return core.WithRunOptions(opts...) }

// OpenTraceFile opens a JSONL (optionally gzip-compressed) flow trace as
// a TraceSource for AnalyzeSource, sorting out-of-order records through
// bounded-memory spill files rather than loading the trace. Close it
// when done.
func OpenTraceFile(path string) (*trace.FileSource, error) {
	return trace.OpenFile(path, trace.FileOptions{})
}

// WithAnalyzeTopology supplies the cluster topology for run-less
// (trace file) analysis.
func WithAnalyzeTopology(top *topology.Topology) AnalyzeOption { return core.WithTopology(top) }

// WithAnalyzeDuration supplies the trace horizon for run-less analysis.
func WithAnalyzeDuration(d Time) AnalyzeOption { return core.WithDuration(d) }

// WithAnalyzeObserver attaches a metrics registry to the analysis
// pipeline.
func WithAnalyzeObserver(reg *Registry) AnalyzeOption { return core.WithAnalysisObserver(reg) }

// WithInactivityTimeout applies the §3 flow-boundary methodology before
// the flow-level analyses.
func WithInactivityTimeout(d Time) AnalyzeOption { return core.WithInactivityTimeout(d) }

// WithAnalyzeProgress delivers a StreamProgress report at every window
// boundary of the streaming sweep.
func WithAnalyzeProgress(fn func(StreamProgress)) AnalyzeOption {
	return core.WithStreamProgress(fn)
}

// NewTopology builds the cluster fabric for WithAnalyzeTopology.
func NewTopology(cfg TopologyConfig) (*topology.Topology, error) { return topology.New(cfg) }

// HeatASCII renders a TM as an ASCII heat map of loge(Bytes) — a terminal
// rendition of Figure 2.
func HeatASCII(m *Matrix, width int) string { return core.HeatASCII(m, width) }

// PaperModelFor returns the §4.1 generative traffic model with
// parameters tuned to the paper's reported statistics at the given
// cluster shape.
func PaperModelFor(shape ClusterShape) ModelParams {
	return model.PaperDefaultsFor(shape)
}

// FitModel estimates model parameters from a measured server-level TM.
func FitModel(m *Matrix, topo *topology.Topology, window Time) ModelParams {
	return model.Fit(m, topo, window)
}

// DefaultFlowShape returns §4.3-flavored flow decomposition defaults.
func DefaultFlowShape() FlowShape { return model.DefaultFlowShape() }

// NewRNG returns a deterministic random stream for the model generators.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// WriteTrace streams flow records as JSON lines (the cmd/dcsim format).
func WriteTrace(w io.Writer, records []FlowRecord) error {
	return trace.WriteJSONL(w, records)
}

// ReadTrace parses a JSONL flow-record stream.
func ReadTrace(r io.Reader) ([]FlowRecord, error) { return trace.ReadJSONL(r) }

// NewTraceWriter returns a streaming trace writer: one JSON line per
// Write, no full-trace buffering. Call Flush when done.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// NewTraceReader returns a streaming trace reader; Read returns io.EOF
// at end of stream. It accepts any stream of JSON values, decoded as
// encoding/json decodes them; lines in TraceWriter's form (the form
// dcsim writes) read fast, without reflection.
func NewTraceReader(r io.Reader) *TraceReader { return trace.NewReader(r) }

// ServerMatrix aggregates flow records into one host-level TM over
// [from, to).
func ServerMatrix(records []FlowRecord, numHosts int, from, to Time) *Matrix {
	return tm.ServerMatrix(records, numHosts, from, to)
}
