package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"

	"dctraffic/internal/congestion"
	"dctraffic/internal/flows"
	"dctraffic/internal/netsim"
	"dctraffic/internal/obs"
	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/tomo"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// AnalyzeOption configures AnalyzeSource, mirroring dctraffic.Run's
// functional-option pattern.
type AnalyzeOption func(*analyzeConfig)

// analyzeConfig is the resolved option set. It embeds the legacy
// AnalyzeOptions struct — that struct remains the single definition of
// the per-figure knobs (and of their defaults, via ApplyDefaults); the
// WithX options and the deprecated struct-based shims both write here.
type analyzeConfig struct {
	AnalyzeOptions

	top      *topology.Topology
	duration netsim.Time
	run      *RunResult
	cdfCap   int
	progress func(StreamProgress)

	// Fused-pipeline fields (see fused.go). live marks the source as a
	// still-running simulation's LiveSource: the run-only inputs
	// (episodes, tomography, Figure 8) are deferred until the source
	// drains, because they read simulator state that is only final then.
	live    *trace.LiveSource
	liveCap int
	runOpts []RunOption
}

// WithRun supplies the run whose trace is being analyzed: its topology
// and duration, plus the run-only inputs (SNMP link stats for
// congestion episodes, the job event log for tomography priors and
// Figure 8, collector overhead). AnalyzeRun applies it for you; use it
// directly only when pairing a RunResult with a different Source.
func WithRun(rr *RunResult) AnalyzeOption {
	return func(c *analyzeConfig) {
		c.run = rr
		c.top = rr.Top
		c.duration = rr.Config.Duration
	}
}

// WithTopology supplies the cluster topology for run-less (trace file)
// analysis. Required when WithRun is absent.
func WithTopology(top *topology.Topology) AnalyzeOption {
	return func(c *analyzeConfig) { c.top = top }
}

// WithDuration supplies the trace horizon for run-less analysis.
// Required when WithRun is absent.
func WithDuration(d netsim.Time) AnalyzeOption {
	return func(c *analyzeConfig) { c.duration = d }
}

// WithParallelism bounds the analysis worker goroutines. 0 means
// runtime.GOMAXPROCS(0). Any value yields bit-identical results (see
// parallel.go's determinism contract).
func WithParallelism(n int) AnalyzeOption {
	return func(c *analyzeConfig) { c.Parallelism = n }
}

// WithSequential forces Parallelism 1 — the debugging escape hatch.
// The same windowed algorithm runs inline, so results are identical.
func WithSequential() AnalyzeOption {
	return func(c *analyzeConfig) { c.Sequential = true }
}

// WithAnalysisObserver attaches a metrics registry. (WithObserver is
// taken by the simulator's RunOption of the same shape.) Like the
// simulator's registry it must not be read concurrently; the pipeline
// touches it only from the coordinating goroutine.
func WithAnalysisObserver(reg *obs.Registry) AnalyzeOption {
	return func(c *analyzeConfig) { c.Observer = reg }
}

// WithFig2Window sets the short TM snapshot window (paper: 10 s).
func WithFig2Window(w netsim.Time) AnalyzeOption {
	return func(c *analyzeConfig) { c.Fig2Window = w }
}

// WithFig2At sets the snapshot window start (default: mid-run).
func WithFig2At(t netsim.Time) AnalyzeOption {
	return func(c *analyzeConfig) { c.Fig2At = t }
}

// WithCongestionThreshold sets C (default 0.7).
func WithCongestionThreshold(c float64) AnalyzeOption {
	return func(cfg *analyzeConfig) { cfg.CongestionThreshold = c }
}

// WithFig8Period sets the read-attempt grouping period (paper: a day).
func WithFig8Period(d netsim.Time) AnalyzeOption {
	return func(c *analyzeConfig) { c.Fig8Period = d }
}

// WithFig10Bin sets the fine TM timescale (paper: 10 s).
func WithFig10Bin(d netsim.Time) AnalyzeOption {
	return func(c *analyzeConfig) { c.Fig10Bin = d }
}

// WithInactivityTimeout enables the §3 flow-boundary methodology before
// the flow-level analyses: records sharing a five-tuple quiet for less
// than the timeout merge into one flow.
func WithInactivityTimeout(d netsim.Time) AnalyzeOption {
	return func(c *analyzeConfig) { c.InactivityTimeout = d }
}

// WithTomoBin sets the tomography TM timescale (paper: 10 min).
func WithTomoBin(d netsim.Time) AnalyzeOption {
	return func(c *analyzeConfig) { c.TomoBin = d }
}

// WithTomoMaxTMs caps the tomography instances analyzed.
func WithTomoMaxTMs(n int) AnalyzeOption {
	return func(c *analyzeConfig) { c.TomoMaxTMs = n }
}

// WithJobPriorAlpha scales the §5.3 multiplier.
func WithJobPriorAlpha(a float64) AnalyzeOption {
	return func(c *analyzeConfig) { c.JobPriorAlpha = a }
}

// WithTomoCold disables warm-starting the sparsity-max simplex across
// consecutive tomography windows.
func WithTomoCold() AnalyzeOption {
	return func(c *analyzeConfig) { c.TomoCold = true }
}

// WithCDFSampleCap bounds the exact-sample count of each whole-run
// streaming CDF (flow durations/rates, inter-arrivals, Figure 7 rates)
// before it converts to a bounded quantile sketch. 0 selects
// stats.DefaultCDFSampleCap; negative keeps every CDF exact regardless
// of trace length (unbounded memory — the pre-streaming behavior).
func WithCDFSampleCap(n int) AnalyzeOption {
	return func(c *analyzeConfig) { c.cdfCap = n }
}

// StreamProgress reports the sweep's position after each window
// boundary. Buffered counts records currently held by the sliding
// WindowView — the quantity streaming analysis bounds — so callers can
// sample heap or write profiles at the peak (cmd/dcanalyze's
// -mem-profile does exactly that).
type StreamProgress struct {
	// Time is the window boundary just completed.
	Time netsim.Time
	// Duration is the analysis horizon.
	Duration netsim.Time
	// Records counts records delivered by the source so far.
	Records int64
	// Buffered counts records currently held in the sliding window.
	Buffered int
	// PeakBuffered is the high-water mark of Buffered.
	PeakBuffered int
}

// WithStreamProgress attaches a per-boundary progress callback, called
// on the coordinating goroutine.
func WithStreamProgress(fn func(StreamProgress)) AnalyzeOption {
	return func(c *analyzeConfig) { c.progress = fn }
}

// AnalyzeRun regenerates every figure from a completed run — the
// functional-options successor of Analyze/AnalyzeContext. It streams
// the run's records through AnalyzeSource; results are bit-identical
// to analyzing a written-out trace of the same run.
//
// The §2 compression measurement starts here and runs alongside the
// sweep; a failed analysis stops it before returning.
func AnalyzeRun(ctx context.Context, rr *RunResult, opts ...AnalyzeOption) (*Report, error) {
	rr.Collector.StartCompressionMeter()
	rep, err := AnalyzeSource(ctx, rr.Source(), append([]AnalyzeOption{WithRun(rr)}, opts...)...)
	if err != nil {
		rr.Collector.StopCompressionMeter()
	}
	return rep, err
}

// maxSweepTime seals the window view after the source drains.
const maxSweepTime = netsim.Time(math.MaxInt64)

// fig34Samples is the number of Figure 3/4 sample windows pooled across
// the run.
const fig34Samples = 16

// winKind orders window kinds within one boundary (any fixed order
// works; this one is part of the deterministic task sequence).
type winKind uint8

const (
	winFig2 winKind = iota
	winFig2Wide
	winFig34
	winFig10
	winTomo
)

// figWindow is one figure's time window in the sweep registry.
type figWindow struct {
	kind     winKind
	idx      int
	from, to netsim.Time
}

// fig34Slot holds one Figure 3/4 sample window's statistics.
type fig34Slot struct {
	used                   bool
	es                     tm.EntryStats
	zeroWithin, zeroAcross float64
	cs                     tm.CorrespondentStats
}

// tomoSlot holds one tomography window's results.
type tomoSlot struct {
	ok                               bool
	eTG, eTJ, eTR, eSM               float64
	fracTrue, fracTG, fracTJ, fracSM float64
	smNonZeros, smHits               float64
	pivots, refactors                int
	warm, fellBack                   bool
}

// chunkResult holds one record chunk's episode-join results.
type chunkResult struct {
	overlap, all *stats.CDF
	attr         congestion.Attribution
}

// tomoDeferred is one tomography window parked by the fused pipeline:
// the window slice is captured at its sweep boundary (identical to the
// two-phase slice) but solved only after the simulation drains, because
// the job event log it reads is written until then.
type tomoDeferred struct {
	idx      int
	from, to netsim.Time
	slice    []trace.FlowRecord
}

// streamAnalysis is the coordinator state of one AnalyzeSource sweep.
type streamAnalysis struct {
	cfg      *analyzeConfig
	reg      *obs.Registry
	top      *topology.Topology
	duration netsim.Time
	numHosts int
	pool     *streamPool
	taskCnt  *obs.Counter

	// fused marks a live (still-running-simulation) source: run-derived
	// work is deferred to finishRun, record-derived work streams as
	// usual. See fused.go.
	fused         bool
	pendingChunks [][]trace.FlowRecord
	tomoPending   []tomoDeferred

	src    trace.Source
	peeked *trace.FlowRecord
	eof    bool
	wv     *trace.WindowView

	wins   []figWindow
	sufMin []netsim.Time

	// run-only inputs, nil/zero in trace mode
	links   []topology.LinkID
	eps     []congestion.Episode
	epIdx   *congestion.EpisodeIndex
	binSize netsim.Time

	// per-record streaming consumers
	incast           *congestion.IncastTracker
	ia               *flows.InterArrivalTracker
	reasm            *flows.StreamReassembler
	byFlows          *stats.StreamCDF
	byBytes          *stats.StreamCDF
	rates            *stats.StreamCDF
	flowCount        int64
	flowStartsBefore int64
	rawStartsBefore  int64

	// record chunks (Figure 7 join + attribution), run mode only
	chunkBuf    []trace.FlowRecord
	chunkSlots  []*chunkResult
	chunkDone   []<-chan struct{}
	chunkNext   int
	fig7Overlap *stats.StreamCDF
	fig7All     *stats.StreamCDF
	attrParts   []congestion.Attribution

	// windowed figure slots
	fig2M        *tm.Matrix
	fig2Patterns tm.PatternSummary
	fig34Slots   []fig34Slot
	fig10Mats    []*tm.Matrix
	fig10Done    []<-chan struct{}
	fig10Next    int
	ring         *tm.ChangeRing

	// tomography: one warm-start chain on the coordinator
	tomoProblem            *tomo.Problem
	tomoEst                *tomo.Estimator
	tomoSlots              []tomoSlot
	xTrue                  []float64
	tb, ttg, ttj, ttr, tsm []float64
}

// AnalyzeSource regenerates the paper's figures from a record stream in
// bounded memory. src must deliver records in canonical (Start, ID)
// order (trace.SliceSource and trace.FileSource both do); options must
// supply a topology and duration, via WithRun or WithTopology +
// WithDuration. Without a run, the figures that need run-only inputs
// (overhead, congestion episodes and everything downstream — Figures
// 5–8, attribution, tomography) are left zero and the record-derived
// figures (2, 3, 4, 9, 10, 11, the incast locality/fan-in audit) are
// computed from the stream alone.
//
// The pipeline sweeps the source once. A window registry — Figure 2's
// snapshot, the 16 Figure 3/4 sample windows, Figure 10's TM bins, the
// tomography windows — is built up front from the duration alone
// (decomposition rule 1), sorted by closing boundary. At each boundary
// the sweep delivers records into a sliding trace.WindowView plus the
// online accumulators (streaming CDFs, inter-arrival and incast
// trackers, the windowed flow reassembler, Figure 7/attribution record
// chunks), hands each closing window its own slice copy as a pool task
// writing its own slot (rule 2), merges the completed slot prefix in
// slot order on this goroutine (rule 3), and retires every record no
// open window can reach. Whole-run statistics stay exact below the
// WithCDFSampleCap sample cap and degrade to deterministic bounded
// quantile sketches beyond it, so small-scale reports are bit-identical
// to the in-memory path at any worker count while week-long traces run
// in O(window) memory.
//
// The three obs phases are unchanged from the in-memory pipeline:
// "analyze.index" (validation, episode detection, window registry),
// "analyze.figures" (the sweep and the record-figure merges),
// "analyze.congestion" (Figures 5–8, incast, attribution).
//
// It returns an error on cancellation, on a source read failure, or on
// a source that violates the canonical order.
func AnalyzeSource(ctx context.Context, src trace.Source, opts ...AnalyzeOption) (*Report, error) {
	var cfg analyzeConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.top == nil {
		return nil, errors.New("core: AnalyzeSource needs a topology: pass WithRun or WithTopology")
	}
	if cfg.duration <= 0 {
		return nil, errors.New("core: AnalyzeSource needs a positive duration: pass WithRun or WithDuration")
	}
	cfg.AnalyzeOptions = cfg.AnalyzeOptions.ApplyDefaults(cfg.duration)
	if cfg.live != nil && cfg.run == nil {
		return nil, errors.New("core: fused analysis needs its run: use RunAnalyze")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analyze canceled: %w", err)
	}

	workers := cfg.Parallelism
	if cfg.Sequential {
		workers = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Observer

	a := &streamAnalysis{
		cfg:      &cfg,
		reg:      reg,
		top:      cfg.top,
		duration: cfg.duration,
		numHosts: cfg.top.NumHosts(),
		src:      src,
		wv:       trace.NewWindowView(),
		fused:    cfg.live != nil,
	}

	stopIndex := reg.StartPhase("analyze.index")
	a.setup()
	stopIndex()
	reg.Gauge("analyze.workers").Set(float64(workers))
	a.taskCnt = reg.Counter("analyze.tasks_total")
	a.pool = newStreamPool(ctx, workers)

	stopFigures := reg.StartPhase("analyze.figures")
	if err := a.sweep(ctx); err != nil {
		a.pool.wait() // cleanup; a task panic re-raises here
		if ctx.Err() != nil {
			return nil, fmt.Errorf("core: analyze canceled: %w", ctx.Err())
		}
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	if a.fused {
		// The source hit EOF, so the producing simulation has finished:
		// the run-only inputs are final and the deferred work can run.
		if err := a.finishRun(ctx); err != nil {
			a.pool.wait()
			return nil, fmt.Errorf("core: analyze canceled: %w", err)
		}
	}
	if err := a.pool.wait(); err != nil {
		return nil, fmt.Errorf("core: analyze canceled: %w", err)
	}
	a.finalDrain()
	reg.Counter("analyze.records_total").Add(a.wv.Delivered())
	rep := &Report{}
	a.mergeFigures(rep)
	stopFigures()

	stopCongestion := reg.StartPhase("analyze.congestion")
	a.congestionFigures(rep)
	stopCongestion()
	return rep, nil
}

// setup builds the window registry, the online accumulators, and — in
// run mode — the episode index and the tomography chain.
func (a *streamAnalysis) setup() {
	cfg := a.cfg
	duration := a.duration

	a.incast = congestion.NewIncastTracker(a.top)
	a.ia = flows.NewInterArrivalTracker(a.top, cfg.cdfCap)
	a.byFlows = stats.NewStreamCDF(cfg.cdfCap)
	a.byBytes = stats.NewStreamCDF(cfg.cdfCap)
	a.rates = stats.NewStreamCDF(cfg.cdfCap)
	if cfg.InactivityTimeout > 0 {
		a.reasm = flows.NewStreamReassembler(cfg.InactivityTimeout, a.consumeFlow)
	}

	if rr := cfg.run; rr != nil {
		a.links = a.top.InterSwitchLinks()
		a.fig7Overlap = stats.NewStreamCDF(cfg.cdfCap)
		a.fig7All = stats.NewStreamCDF(cfg.cdfCap)
		a.tomoProblem = tomo.NewProblem(a.top)
		a.tomoEst = a.tomoProblem.NewEstimator(tomo.EstimatorOptions{Cold: cfg.TomoCold})
		a.xTrue = make([]float64, a.tomoProblem.NumPairs())
		if !a.fused {
			// Fused mode defers episode detection to finishRun: the link
			// stats are still being written by the simulation here.
			a.eps = congestion.Detect(rr.Net.Stats(), a.top, cfg.CongestionThreshold, a.links)
			a.epIdx = congestion.NewEpisodeIndex(a.eps)
			a.binSize = rr.Net.Stats().BinSize()
		}
	}

	// The window registry: every figure window, built from the duration
	// alone, sorted by closing boundary. The suffix-minimum of window
	// starts gives the retirement watermark once a prefix has closed.
	sampleWindow := 10 * cfg.Fig2Window
	wins := []figWindow{
		{kind: winFig2, from: cfg.Fig2At, to: cfg.Fig2At + cfg.Fig2Window},
		{kind: winFig2Wide, from: cfg.Fig2At, to: cfg.Fig2At + sampleWindow},
	}
	a.fig34Slots = make([]fig34Slot, fig34Samples)
	for k := 0; k < fig34Samples; k++ {
		from := duration * netsim.Time(k) / fig34Samples
		wins = append(wins, figWindow{kind: winFig34, idx: k, from: from, to: from + sampleWindow})
	}
	nBins := int((duration + cfg.Fig10Bin - 1) / cfg.Fig10Bin)
	a.fig10Mats = make([]*tm.Matrix, nBins)
	a.ring = tm.NewChangeRing(1, 10)
	for i := 0; i < nBins; i++ {
		from, to := tm.SeriesBinWindow(i, cfg.Fig10Bin, duration)
		wins = append(wins, figWindow{kind: winFig10, idx: i, from: from, to: to})
	}
	if cfg.run != nil {
		tomoWindows := int((duration + cfg.TomoBin - 1) / cfg.TomoBin)
		if tomoWindows > cfg.TomoMaxTMs {
			tomoWindows = cfg.TomoMaxTMs
		}
		a.tomoSlots = make([]tomoSlot, tomoWindows)
		for i := 0; i < tomoWindows; i++ {
			from, to := tm.SeriesBinWindow(i, cfg.TomoBin, duration)
			wins = append(wins, figWindow{kind: winTomo, idx: i, from: from, to: to})
		}
	}
	sort.Slice(wins, func(i, j int) bool {
		if wins[i].to != wins[j].to {
			return wins[i].to < wins[j].to
		}
		if wins[i].kind != wins[j].kind {
			return wins[i].kind < wins[j].kind
		}
		return wins[i].idx < wins[j].idx
	})
	a.wins = wins
	a.sufMin = make([]netsim.Time, len(wins)+1)
	a.sufMin[len(wins)] = maxSweepTime
	for i := len(wins) - 1; i >= 0; i-- {
		a.sufMin[i] = a.sufMin[i+1]
		if wins[i].from < a.sufMin[i] {
			a.sufMin[i] = wins[i].from
		}
	}
}

// sweep runs the boundary loop: deliver, dispatch, merge the ready
// prefix, retire.
func (a *streamAnalysis) sweep(ctx context.Context) error {
	i := 0
	for i < len(a.wins) {
		if err := ctx.Err(); err != nil {
			return err
		}
		boundary := a.wins[i].to
		if err := a.advance(boundary); err != nil {
			return err
		}
		for i < len(a.wins) && a.wins[i].to == boundary {
			a.dispatch(&a.wins[i])
			i++
		}
		a.drainReady(false)
		a.wv.Retire(a.sufMin[i])
		a.reg.Gauge("analyze.stream.peak_buffered_records").SetMax(float64(a.wv.Buffered()))
		if a.cfg.progress != nil {
			a.cfg.progress(StreamProgress{
				Time:         boundary,
				Duration:     a.duration,
				Records:      a.wv.Delivered(),
				Buffered:     a.wv.Buffered(),
				PeakBuffered: a.wv.PeakBuffered(),
			})
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Past the last window: drain the source tail into the per-record
	// consumers, flush the reassembler and the final partial chunk.
	if err := a.advance(maxSweepTime); err != nil {
		return err
	}
	if a.reasm != nil {
		a.reasm.Close()
	}
	a.flushChunk()
	return nil
}

// advance delivers every source record with Start < boundary and seals
// the delivery watermark at boundary.
func (a *streamAnalysis) advance(boundary netsim.Time) error {
	for !a.eof {
		if a.peeked == nil {
			rec, err := a.src.Next()
			if err == io.EOF {
				a.eof = true
				break
			}
			if err != nil {
				return fmt.Errorf("source: %w", err)
			}
			a.peeked = &rec
		}
		if a.peeked.Start >= boundary {
			break
		}
		r := *a.peeked
		a.peeked = nil
		if err := a.deliver(r); err != nil {
			return err
		}
	}
	a.wv.Seal(boundary)
	return nil
}

// deliver feeds one record to the window view, the per-record
// consumers, and the chunk buffer.
func (a *streamAnalysis) deliver(r trace.FlowRecord) error {
	if err := a.wv.Append(r); err != nil {
		return err
	}
	if r.Start < a.duration {
		a.rawStartsBefore++
	}
	a.incast.Observe(&r)
	if a.epIdx != nil || a.fused {
		a.chunkBuf = append(a.chunkBuf, r)
		if len(a.chunkBuf) >= recordShardTarget {
			a.flushChunk()
		}
	}
	if a.reasm != nil {
		a.reasm.Feed(r)
	} else {
		a.consumeFlow(r)
	}
	return nil
}

// consumeFlow feeds one flow record (raw, or reassembled when
// InactivityTimeout is set) to the flow-level accumulators.
func (a *streamAnalysis) consumeFlow(r trace.FlowRecord) {
	a.flowCount++
	if r.Start < a.duration {
		a.flowStartsBefore++
	}
	d := r.Duration().Seconds()
	a.byFlows.Add(d)
	a.byBytes.AddWeighted(d, float64(r.Bytes))
	if rate := r.AvgRateBps(); rate > 0 {
		a.rates.Add(rate / 1e6)
	}
	a.ia.Observe(&r)
}

// flushChunk seals the buffered record chunk. Chunk boundaries depend
// only on the record count (rule 1), so the fused and two-phase paths
// cut identical chunks; fused mode parks them until the episode index
// exists (finishRun), the two-phase path submits immediately.
func (a *streamAnalysis) flushChunk() {
	if len(a.chunkBuf) == 0 {
		return
	}
	chunk := a.chunkBuf
	a.chunkBuf = nil
	if a.epIdx == nil {
		a.pendingChunks = append(a.pendingChunks, chunk)
		return
	}
	a.submitChunk(chunk)
}

// submitChunk hands one sealed chunk to the pool as an episode-join
// task.
func (a *streamAnalysis) submitChunk(chunk []trace.FlowRecord) {
	slot := &chunkResult{}
	a.chunkSlots = append(a.chunkSlots, slot)
	a.taskCnt.Inc()
	a.chunkDone = append(a.chunkDone, a.pool.submit(func() {
		slot.overlap, slot.all = congestion.OverlapRateCDFsIndexed(chunk, a.epIdx, a.top)
		slot.attr = congestion.AttributeIndexed(chunk, a.epIdx, a.top)
	}))
}

// dispatch hands a closing window its slice copy: matrix windows go to
// the pool, tomography windows run inline so the warm-start chain stays
// on the coordinator.
func (a *streamAnalysis) dispatch(w *figWindow) {
	from, to := w.from, w.to
	slice := a.wv.Slice(from, to)
	a.taskCnt.Inc()
	switch w.kind {
	case winFig2:
		a.pool.submit(func() {
			a.fig2M = tm.ServerMatrix(slice, a.numHosts, from, to)
		})
	case winFig2Wide:
		a.pool.submit(func() {
			// The pattern shares come from a 10×-longer window so they are
			// stable (a single 10 s window is dominated by whichever
			// shuffle is active).
			wide := tm.ServerMatrix(slice, a.numHosts, from, to)
			a.fig2Patterns = tm.SummarizePatterns(wide, a.top)
		})
	case winFig34:
		k := w.idx
		a.pool.submit(func() {
			m := tm.ServerMatrix(slice, a.numHosts, from, to)
			if m.NonZero() == 0 {
				return
			}
			s := &a.fig34Slots[k]
			s.used = true
			s.es = tm.ComputeEntryStats(m, a.top)
			s.zeroWithin = s.es.PZeroWithinRack
			s.zeroAcross = s.es.PZeroAcrossRack
			s.cs = tm.ComputeCorrespondents(m, a.top)
		})
	case winFig10:
		i := w.idx
		a.fig10Done = append(a.fig10Done, a.pool.submit(func() {
			a.fig10Mats[i] = tm.ServerMatrix(slice, a.numHosts, from, to)
		}))
	case winTomo:
		if a.fused {
			// The estimator chain reads the job event log, which the
			// still-running simulation is writing: park the window's slice
			// (captured here, so it is identical to the two-phase slice)
			// and solve the chain in window order in finishRun.
			a.tomoPending = append(a.tomoPending, tomoDeferred{idx: w.idx, from: from, to: to, slice: slice})
			return
		}
		a.tomoWindow(w.idx, from, to, slice)
	}
}

// finishRun executes the run-derived work a fused sweep deferred. It
// runs after the source hit EOF — the producing simulation has
// returned, so the link stats, job event log and collector are final
// and reading them cannot race. Episode detection, the parked chunk
// submissions and the tomography chain all happen in the same order the
// two-phase path uses, so results are bit-identical.
func (a *streamAnalysis) finishRun(ctx context.Context) error {
	cfg := a.cfg
	rr := cfg.run
	a.eps = congestion.Detect(rr.Net.Stats(), a.top, cfg.CongestionThreshold, a.links)
	a.epIdx = congestion.NewEpisodeIndex(a.eps)
	a.binSize = rr.Net.Stats().BinSize()
	for _, chunk := range a.pendingChunks {
		if err := ctx.Err(); err != nil {
			return err
		}
		a.submitChunk(chunk)
	}
	a.pendingChunks = nil
	for i := range a.tomoPending {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := &a.tomoPending[i]
		a.tomoWindow(d.idx, d.from, d.to, d.slice)
		d.slice = nil
	}
	a.tomoPending = nil
	return nil
}

// tomoWindow runs one tomography window through the shared warm-start
// estimator chain, replicating the sequential loop's skip-on-error
// semantics. Windows arrive in index order (the registry is sorted by
// boundary), so consecutive solvable windows warm-start exactly like a
// single chain over the whole series.
func (a *streamAnalysis) tomoWindow(i int, from, to netsim.Time, slice []trace.FlowRecord) {
	truth := tm.TorMatrix(slice, a.top, from, to)
	if truth.Total() <= 0 {
		return
	}
	est := a.tomoEst
	rr := a.cfg.run
	a.tb = est.LinkCountsInto(a.tb, truth)
	a.tomoProblem.VecFromTMInto(a.xTrue, truth)

	var err error
	a.ttg, err = est.TomogravityInto(a.ttg, a.tb)
	if err != nil {
		return
	}
	mult := tomo.JobMultiplier(rr.Log, a.top, from, from+a.cfg.TomoBin, a.cfg.JobPriorAlpha)
	a.ttj, err = est.TomogravityWithMultiplierInto(a.ttj, a.tb, mult)
	if err != nil {
		return
	}
	roleMult := tomo.RoleAwareMultiplier(rr.Log, a.top, from, from+a.cfg.TomoBin, a.cfg.JobPriorAlpha)
	a.ttr, err = est.TomogravityWithMultiplierInto(a.ttr, a.tb, roleMult)
	if err != nil {
		return
	}
	a.tsm, err = est.SparsityMaxInto(a.tsm, a.tb)
	if err != nil {
		return
	}
	st := est.SolveStats()

	s := &a.tomoSlots[i]
	s.ok = true
	s.eTG = tomo.RMSRE(a.xTrue, a.ttg, 0.75)
	s.eTJ = tomo.RMSRE(a.xTrue, a.ttj, 0.75)
	s.eTR = tomo.RMSRE(a.xTrue, a.ttr, 0.75)
	s.eSM = tomo.RMSRE(a.xTrue, a.tsm, 0.75)
	_, s.fracTrue = tomo.SparsityOfVec(a.xTrue, 0.75)
	_, s.fracTG = tomo.SparsityOfVec(a.ttg, 0.75)
	_, s.fracTJ = tomo.SparsityOfVec(a.ttj, 0.75)
	_, s.fracSM = tomo.SparsityOfVec(a.tsm, 0.75)
	s.smNonZeros = float64(tomo.NonZeroCount(a.tsm))
	s.smHits = float64(tomo.HeavyHitterOverlap(a.xTrue, a.tsm, 97))
	s.pivots = st.Pivots
	s.refactors = st.Refactorizations
	s.warm = st.Warm
	s.fellBack = st.FellBack
}

// drainReady merges the completed prefix of the ordered slot sequences
// (Figure 10 bins into the change ring, record chunks into the Figure 7
// CDFs and attribution parts), in slot order only. With block set it
// asserts completeness (used after pool.wait, when every done channel
// is closed).
func (a *streamAnalysis) drainReady(block bool) {
	for a.fig10Next < len(a.fig10Done) {
		if !ready(a.fig10Done[a.fig10Next], block) {
			break
		}
		m := a.fig10Mats[a.fig10Next]
		if m == nil {
			break // task skipped after cancellation; caller handles
		}
		a.ring.Push(m)
		a.fig10Mats[a.fig10Next] = nil
		a.fig10Next++
	}
	for a.chunkNext < len(a.chunkDone) {
		if !ready(a.chunkDone[a.chunkNext], block) {
			break
		}
		slot := a.chunkSlots[a.chunkNext]
		if slot.overlap == nil {
			break
		}
		a.fig7Overlap.MergeCDF(slot.overlap)
		a.fig7All.MergeCDF(slot.all)
		a.attrParts = append(a.attrParts, slot.attr)
		a.chunkSlots[a.chunkNext] = nil
		a.chunkNext++
	}
}

// finalDrain merges every remaining slot after the pool has drained.
func (a *streamAnalysis) finalDrain() { a.drainReady(true) }

// ready reports whether done has closed, blocking when block is set.
func ready(done <-chan struct{}, block bool) bool {
	if block {
		<-done
		return true
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// mergeFigures reduces the record-derived figure slots into the report,
// in slot order, on the coordinating goroutine (rule 3).
func (a *streamAnalysis) mergeFigures(rep *Report) {
	cfg := a.cfg

	if rr := cfg.run; rr != nil {
		rep.Overhead = rr.Collector.Overhead(a.duration)
		// Replace the model's compression constant with the ratio
		// actually achieved on this run's log sample. The meter has been
		// compressing since the run or the analysis started; the phase
		// is how long its tail held up the report.
		stopWait := a.reg.StartPhase("analyze.compress_wait")
		ratio, err := rr.Collector.MeasuredCompression()
		stopWait()
		a.reg.Counter("trace.compress_records_total").Add(int64(min(rr.Collector.NumRecords(), trace.CompressionSample)))
		if err == nil && ratio > 0 {
			rep.Overhead.CompressionRatio = ratio
			rep.Overhead.UploadBytesPerServerPerDay = rep.Overhead.LogBytesPerServerPerDay / ratio
		}
	}

	rep.Fig2 = Fig2Data{
		From: cfg.Fig2At, To: cfg.Fig2At + cfg.Fig2Window,
		TM:       a.fig2M,
		Patterns: a.fig2Patterns,
	}

	var es tm.EntryStats
	var zeroWithin, zeroAcross float64
	var fracWithin, fracAcross, withinCounts, acrossCounts []float64
	for k := range a.fig34Slots {
		s := &a.fig34Slots[k]
		if !s.used {
			continue
		}
		es.WithinRack = append(es.WithinRack, s.es.WithinRack...)
		es.AcrossRack = append(es.AcrossRack, s.es.AcrossRack...)
		zeroWithin += s.zeroWithin
		zeroAcross += s.zeroAcross
		fracWithin = append(fracWithin, s.cs.FracWithin...)
		fracAcross = append(fracAcross, s.cs.FracAcross...)
		withinCounts = append(withinCounts, s.cs.MedianWithinCount)
		acrossCounts = append(acrossCounts, s.cs.MedianAcrossCount)
	}
	if n := len(withinCounts); n > 0 {
		es.PZeroWithinRack = zeroWithin / float64(n)
		es.PZeroAcrossRack = zeroAcross / float64(n)
	}
	wd, ad := es.LogHistograms(30)
	rep.Fig3 = Fig3Data{Entries: es, WithinDensity: wd, AcrossDensity: ad}
	rep.Fig4 = Fig4Data{
		Stats: tm.CorrespondentStats{
			FracWithin:        fracWithin,
			FracAcross:        fracAcross,
			MedianWithinCount: stats.Median(withinCounts),
			MedianAcrossCount: stats.Median(acrossCounts),
		},
		WithinCDF: stats.NewCDF(fracWithin).Points(50),
		AcrossCDF: stats.NewCDF(fracAcross).Points(50),
	}

	rep.Fig9 = Fig9Data{
		ByFlowsCDF: a.byFlows.Points(100),
		ByBytesCDF: a.byBytes.Points(100),
		Summary: flows.Summary{
			NumFlows:             int(a.flowCount),
			FracShorterThan10s:   a.byFlows.P(10),
			FracLongerThan200s:   1 - a.byFlows.P(200),
			BytesInFlowsUnder25s: a.byBytes.P(25),
			MedianDurationSec:    a.byFlows.Quantile(0.5),
			MedianRateMbps:       a.rates.Quantile(0.5),
			ArrivalRatePerSec:    float64(a.flowStartsBefore) / a.duration.Seconds(),
		},
	}

	mag := a.ring.Magnitude()
	magPts := make([]stats.Point, len(mag))
	binSec := cfg.Fig10Bin.Seconds()
	for i, v := range mag {
		magPts[i] = stats.Point{X: float64(i) * binSec, Y: v / binSec}
	}
	ch10 := a.ring.Changes(0)
	ch100 := a.ring.Changes(1)
	rep.Fig10 = Fig10Data{
		Bin:              cfg.Fig10Bin,
		Magnitude:        magPts,
		Change10s:        ch10,
		Change100s:       ch100,
		MedianChange10s:  stats.Median(nonZero(ch10)),
		MedianChange100s: stats.Median(nonZero(ch100)),
	}

	rep.Fig11 = Fig11Data{
		ClusterCDF:    a.ia.Cluster.Points(100),
		TorCDF:        a.ia.Tor.Points(100),
		ServerCDF:     a.ia.Server.Points(100),
		ModeMs:        a.ia.ModeMs(),
		ArrivalPerSec: float64(a.rawStartsBefore) / a.duration.Seconds(),
	}

	if cfg.run != nil {
		a.mergeTomo(rep)
	}
}

// mergeTomo replays the tomography slots in window order, feeding the
// solver-effort series on the coordinating goroutine (the registry is
// not goroutine-safe).
func (a *streamAnalysis) mergeTomo(rep *Report) {
	reg := a.reg
	var f12 Fig12Data
	var f13 Fig13Data
	truthCDF, tgCDF, jobsCDF, smCDF := &stats.CDF{}, &stats.CDF{}, &stats.CDF{}, &stats.CDF{}
	var smNonZeros, smHits []float64
	var xs, ys []float64
	pivotHist := reg.Histogram("tomo.pivots_per_window", obs.Pow2Bounds(1, 16))
	refacHist := reg.Histogram("tomo.refactorizations_per_window", obs.Pow2Bounds(1, 10))
	warmWindows := reg.Counter("tomo.windows_warm")
	coldWindows := reg.Counter("tomo.windows_cold")
	fallbackWindows := reg.Counter("tomo.windows_fallback")
	for i := range a.tomoSlots {
		s := &a.tomoSlots[i]
		if !s.ok {
			continue
		}
		pivotHist.Observe(float64(s.pivots))
		refacHist.Observe(float64(s.refactors))
		if s.warm {
			warmWindows.Inc()
		} else {
			coldWindows.Inc()
		}
		if s.fellBack {
			fallbackWindows.Inc()
		}
		f12.NumTMs++
		f12.Tomogravity = append(f12.Tomogravity, s.eTG)
		f12.TomogravityJobs = append(f12.TomogravityJobs, s.eTJ)
		f12.TomogravityRoles = append(f12.TomogravityRoles, s.eTR)
		f12.SparsityMax = append(f12.SparsityMax, s.eSM)
		truthCDF.Add(s.fracTrue)
		tgCDF.Add(s.fracTG)
		jobsCDF.Add(s.fracTJ)
		smCDF.Add(s.fracSM)
		smNonZeros = append(smNonZeros, s.smNonZeros)
		smHits = append(smHits, s.smHits)
		xs = append(xs, s.fracTrue)
		ys = append(ys, s.eTG)
	}
	f12.MedianTomogravity = stats.Median(f12.Tomogravity)
	f12.MedianTomogravityJobs = stats.Median(f12.TomogravityJobs)
	f12.MedianTomogravityRoles = stats.Median(f12.TomogravityRoles)
	f12.MedianSparsityMax = stats.Median(f12.SparsityMax)
	for i := range xs {
		f13.Points = append(f13.Points, stats.Point{X: xs[i], Y: ys[i]})
	}
	if len(xs) >= 2 {
		f13.Pearson = stats.Pearson(xs, ys)
		f13.FitA, f13.FitB = stats.LogFit(xs, ys)
	}
	rep.Fig12 = f12
	rep.Fig13 = f13
	rep.Fig14 = Fig14Data{
		TruthCDF:         truthCDF.Points(50),
		TomogravityCDF:   tgCDF.Points(50),
		JobsCDF:          jobsCDF.Points(50),
		SparsityCDF:      smCDF.Points(50),
		SparsityNonZeros: stats.Mean(smNonZeros),
		HeavyHitterHits:  stats.Mean(smHits),
	}
}

// congestionFigures computes everything downstream of the episode set.
// Most of it needs run-only inputs; the incast audit's record-derived
// half streams in either mode.
func (a *streamAnalysis) congestionFigures(rep *Report) {
	cfg := a.cfg
	maxConns := 0
	if rr := cfg.run; rr != nil {
		maxConns = rr.Cluster.Config().MaxConnsPerVertex

		rep.Fig5 = Fig5Data{
			Episodes:       a.eps,
			LinksMonitored: len(a.links),
			FracLinks10s:   congestion.FracLinksWithEpisodeAtLeast(a.eps, a.links, 10*timeSecond),
			FracLinks100s:  congestion.FracLinksWithEpisodeAtLeast(a.eps, a.links, 100*timeSecond),
			MeanConcurrent: stats.MeanInt(congestion.ConcurrencySeries(a.eps, a.binSize, a.duration)),
			Correlation:    congestion.Correlate(a.eps),
		}

		durCDF, over10, longest := congestion.DurationStats(a.eps)
		rep.Fig6 = Fig6Data{
			DurationCDF: durCDF.Points(100),
			Episodes:    durCDF.N(),
			Over10s:     over10,
			LongestSec:  longest,
			FracUnder10: durCDF.P(10),
		}

		rep.Fig7 = Fig7Data{
			OverlapCDF:        a.fig7Overlap.Points(100),
			AllCDF:            a.fig7All.Points(100),
			MedianOverlapMbps: a.fig7Overlap.Quantile(0.5),
			MedianAllMbps:     a.fig7All.Quantile(0.5),
		}

		numPeriods := int(a.duration / cfg.Fig8Period)
		if numPeriods < 1 {
			numPeriods = 1
		}
		days := congestion.ReadFailureImpact(rr.Log, rr.Records(), a.eps, a.top, cfg.Fig8Period, numPeriods)
		var increases []float64
		for _, d := range days {
			if d.CongestedReads > 0 && d.ClearReads > 0 {
				increases = append(increases, d.IncreasePct)
			}
		}
		rep.Fig8 = Fig8Data{Period: cfg.Fig8Period, Days: days, MedianIncreasePct: stats.Median(increases)}

		rep.Attribution = congestion.MergeAttribution(a.attrParts)
	}

	rep.Incast = a.incast.Audit(a.eps, a.binSize, a.duration, maxConns)
}

// timeSecond avoids importing time for two literals.
const timeSecond = netsim.Time(1e9)

func nonZero(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x != 0 {
			out = append(out, x)
		}
	}
	return out
}
