package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"dctraffic/internal/congestion"
	"dctraffic/internal/eventlog"
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

// analyzeConfig is the resolved option set. It embeds AnalyzeOptions,
// the single definition of the per-figure parameters and of their
// defaults (ApplyDefaults); WithAnalysisObserver and
// WithInactivityTimeout write its two settable fields.
type analyzeConfig struct {
	AnalyzeOptions

	top      *topology.Topology
	duration netsim.Time
	run      *RunResult
	progress func(StreamProgress)
	runOpts  []RunOption // RunAnalyze's simulator options (see fused.go)
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

// WithSequential has no effect.
//
// Deprecated: the analysis always runs on the goroutine that calls
// AnalyzeSource; the option remains for source compatibility.
func WithSequential() AnalyzeOption {
	return func(*analyzeConfig) {}
}

// WithAnalysisObserver attaches a metrics registry. (WithObserver is
// taken by the simulator's RunOption of the same shape.) Like the
// simulator's registry it must not be read concurrently; the pipeline
// touches it only from the goroutine that calls AnalyzeSource.
func WithAnalysisObserver(reg *obs.Registry) AnalyzeOption {
	return func(c *analyzeConfig) { c.Observer = reg }
}

// WithInactivityTimeout enables the §3 flow-boundary methodology before
// the flow-level analyses: records sharing a five-tuple quiet for less
// than the timeout merge into one flow.
func WithInactivityTimeout(d netsim.Time) AnalyzeOption {
	return func(c *analyzeConfig) { c.InactivityTimeout = d }
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
// on the goroutine that calls AnalyzeSource.
func WithStreamProgress(fn func(StreamProgress)) AnalyzeOption {
	return func(c *analyzeConfig) { c.progress = fn }
}

// AnalyzeRun regenerates every figure from a completed run. It streams
// the run's records through AnalyzeSource; results are bit-identical
// to analyzing a written-out trace of the same run. It returns an error
// for a run without its record log: RunAnalyze's runs keep none.
//
// The §2 compression measurement starts here and runs alongside the
// sweep; every exit without a report, a panic included, stops it.
func AnalyzeRun(ctx context.Context, rr *RunResult, opts ...AnalyzeOption) (rep *Report, err error) {
	if kept, n := len(rr.Records()), rr.Collector.NumRecords(); kept != n {
		return nil, fmt.Errorf("core: AnalyzeRun needs the run's record log, which holds %d of its %d records (a RunAnalyze run keeps none)", kept, n)
	}
	rr.Collector.StartCompressionMeter()
	defer func() {
		if rep == nil {
			rr.Collector.StopCompressionMeter()
		}
	}()
	return AnalyzeSource(ctx, rr.Source(), append([]AnalyzeOption{WithRun(rr)}, opts...)...)
}

// maxSweepTime seals the window view after the source drains.
const maxSweepTime = netsim.Time(math.MaxInt64)

// fig34Samples is the number of Figure 3/4 sample windows pooled across
// the run.
const fig34Samples = 16

// winKind orders window kinds within one boundary (any fixed order
// works; this one is part of the deterministic window sequence).
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

// recordShardTarget is the size of an attribution part: the record join
// seals one every recordShardTarget records, in delivery order. Part
// boundaries depend only on the record count, so every path cuts the
// same parts; attribution sums per part, so the value is part of the
// pinned digests.
const recordShardTarget = 1 << 17

// parkedWindow is one tomography window parked at its sweep boundary:
// its ToR matrix, computed from the window's slice, waits there until
// the job event log the estimator chain reads is final (solveParked).
type parkedWindow struct {
	idx   int
	from  netsim.Time
	truth *tm.Matrix
}

// streamAnalysis is the state of one AnalyzeSource sweep.
type streamAnalysis struct {
	cfg      *analyzeConfig
	reg      *obs.Registry
	top      *topology.Topology
	duration netsim.Time
	numHosts int
	taskCnt  *obs.Counter

	src    trace.Source
	peeked *trace.FlowRecord
	eof    bool
	wv     *trace.WindowView

	wins   []figWindow
	sufMin []netsim.Time

	// run-only inputs, nil/zero in trace mode
	links   []topology.LinkID
	eps     []congestion.Episode
	binSize netsim.Time

	// The congestion join, run mode only: episodes tracked as the link
	// bins become final, a queue of delivered records, each joined in
	// delivery order once the bin holding its End is final, and Figure
	// 8's tally of read attempts against the joined flows. bins is the
	// run's link stats when the sweep drops the bins its tracker has
	// scanned, nil when it keeps them.
	tracker   *congestion.EpisodeTracker
	join      *congestion.RecordJoin
	reads     *congestion.ReadTally
	bins      *netsim.LinkStats
	joinQ     []trace.FlowRecord
	joinHead  int
	joined    int
	joinQPeak *obs.Gauge

	// per-record streaming consumers
	incast          *congestion.IncastTracker
	ia              *flows.InterArrivalTracker
	reasm           *flows.StreamReassembler
	fig9            *flows.SummaryTracker
	rawStartsBefore int64

	// windowed figure slots
	fig2M        *tm.Matrix
	fig2Patterns tm.PatternSummary
	fig34Slots   []fig34Slot
	ring         *tm.ChangeRing

	// tomography: one warm-start chain, fed by the parked windows
	tomoParked             []parkedWindow
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
// trackers, the windowed flow reassembler, the congestion record join),
// computes each closing window inline in boundary order — Figure 10
// bins go straight into the change ring — and retires every record no
// open window can reach. Everything runs on the calling goroutine.
// Whole-run statistics stay exact up to stats.DefaultCDFSampleCap
// samples and degrade to deterministic bounded quantile sketches beyond
// it, so week-long traces run in O(window) memory.
//
// The run-derived inputs are taken by rules that read the run's own
// state, so a finished run (AnalyzeRun) and one still running under the
// sweep (RunAnalyze) take the same sweep, bit for bit:
//   - each record joins the congestion episodes, feeding the Figure 7
//     CDFs, the attribution and Figure 8's per-flow congested bits, once
//     the link bin holding its End ends at or before the network's last
//     accrual;
//   - Figure 8 counts each read attempt once its flow has joined; the
//     read attempts a run's log keeps count after the last join;
//   - each tomography window parks its ToR matrix at its boundary, and
//     the parked windows are solved in window order once the job event
//     log is final (solveParked).
//
// A finished run's last step flushed the network and ended its clock at
// the horizon, so both inputs are final from the start: records join as
// they arrive and each window is solved at its own boundary.
//
// A run whose collector hands its records to this sweep (RunAnalyze's:
// the collector has a sink) has no other reader of its link bins and
// read attempts, so it keeps neither: the sweep drops the bins its
// episode tracker has scanned and takes each read attempt from the
// job event log as the log receives it (eventlog.Log.SetReadSink).
//
// The three obs phases are "analyze.index" (validation, episode
// tracker, window registry), "analyze.figures" (the sweep and the
// record-figure merges; on a RunAnalyze run it includes the simulator
// steps the sweep pulls, which trace.live.step_seconds totals) and
// "analyze.congestion" (Figures 5–8, incast, attribution).
//
// It returns an error on cancellation, on a source read failure, on a
// source that violates the canonical order, or on a record with an
// endpoint outside the topology, an end before its start, or negative
// bytes.
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
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analyze canceled: %w", err)
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
	}

	stopIndex := reg.StartPhase("analyze.index")
	a.setup()
	stopIndex()
	a.taskCnt = reg.Counter("analyze.tasks_total")

	stopFigures := reg.StartPhase("analyze.figures")
	if err := a.sweep(ctx); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("core: analyze canceled: %w", ctx.Err())
		}
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
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
// run mode — the episode tracker, the record join and the tomography
// chain.
func (a *streamAnalysis) setup() {
	cfg := a.cfg
	duration := a.duration

	a.incast = congestion.NewIncastTracker(a.top)
	a.ia = flows.NewInterArrivalTracker(a.top, 0)
	a.fig9 = flows.NewSummaryTracker(duration, 0)
	if cfg.InactivityTimeout > 0 {
		a.reasm = flows.NewStreamReassembler(cfg.InactivityTimeout, a.consumeFlow)
	}

	if rr := cfg.run; rr != nil {
		a.links = a.top.InterSwitchLinks()
		st := rr.Net.Stats()
		a.binSize = st.BinSize()
		a.tracker = congestion.NewEpisodeTracker(st, a.top, cfg.CongestionThreshold, a.links)
		a.join = congestion.NewRecordJoin(a.tracker.Index(), a.top, 0)
		a.reads = congestion.NewReadTally(a.join, cfg.Fig8Period, max(int(duration/cfg.Fig8Period), 1))
		a.joinQPeak = a.reg.Gauge("analyze.join.queued_records_peak")
		waiting := a.reg.Gauge("analyze.join.waiting_reads_peak")
		if rr.Collector.HasSink() {
			a.bins = st
			rr.Log.SetReadSink(func(ra eventlog.ReadAttempt) {
				a.reads.Add(ra)
				waiting.SetMax(float64(a.reads.Waiting()))
			})
		}
		a.tomoProblem = tomo.NewProblem(a.top)
		a.tomoEst = a.tomoProblem.NewEstimator(tomo.EstimatorOptions{})
		a.xTrue = make([]float64, a.tomoProblem.NumPairs())
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

// sweep runs the boundary loop: deliver, dispatch, retire.
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
		if err := a.solveParked(ctx); err != nil {
			return err
		}
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
	// consumers, flush the reassembler and finish the record join.
	if err := a.advance(maxSweepTime); err != nil {
		return err
	}
	if a.reasm != nil {
		a.reasm.Close()
	}
	if a.join != nil {
		// The source is drained, so the run has finished: every link
		// bin is final.
		a.tracker.Close()
		a.joinReady()
		if a.joined%recordShardTarget != 0 {
			a.join.SealPart()
			a.taskCnt.Inc()
		}
		a.eps = a.tracker.Episodes()
		// Every record has joined: count the read attempts the run's log
		// kept (none, if they came to the tally as the run went), and
		// detach the tally, so the run's result does not hold the sweep.
		log := a.cfg.run.Log
		for _, ra := range log.Reads() {
			a.reads.Add(ra)
		}
		log.SetReadSink(nil)
	}
	return a.solveParked(ctx)
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
// consumers, and the record join.
func (a *streamAnalysis) deliver(r trace.FlowRecord) error {
	if err := a.checkRecord(&r); err != nil {
		return err
	}
	if err := a.wv.Append(r); err != nil {
		return err
	}
	if r.Start < a.duration {
		a.rawStartsBefore++
	}
	a.incast.Observe(&r)
	if a.join != nil {
		a.joinQ = append(a.joinQ, r)
		a.joinQPeak.SetMax(float64(len(a.joinQ) - a.joinHead))
		a.joinFinal()
	}
	if a.reasm != nil {
		a.reasm.Feed(r)
	} else {
		a.consumeFlow(r)
	}
	return nil
}

// checkRecord rejects a record the figures cannot take: an endpoint
// outside the topology's hosts, an end before the start, or a negative
// byte count. A trace file is input from outside the program, and every
// source passes through here.
func (a *streamAnalysis) checkRecord(r *trace.FlowRecord) error {
	switch {
	case uint(r.Src) >= uint(a.numHosts):
		return fmt.Errorf("record %d: src %d outside the topology's %d hosts", r.ID, r.Src, a.numHosts)
	case uint(r.Dst) >= uint(a.numHosts):
		return fmt.Errorf("record %d: dst %d outside the topology's %d hosts", r.ID, r.Dst, a.numHosts)
	case r.End < r.Start:
		return fmt.Errorf("record %d: end %d before start %d", r.ID, r.End, r.Start)
	case r.Bytes < 0:
		return fmt.Errorf("record %d: negative bytes %d", r.ID, r.Bytes)
	}
	return nil
}

// consumeFlow feeds one flow record (raw, or reassembled when
// InactivityTimeout is set) to the flow-level accumulators.
func (a *streamAnalysis) consumeFlow(r trace.FlowRecord) {
	a.fig9.Observe(&r)
	a.ia.Observe(&r)
}

// joinFinal advances the tracker to the bins the network has finished
// accruing, drops them if the sweep is their only reader, and joins the
// records that makes ready. Bytes accrue lazily, at the next network
// event, so the simulated clock can run ahead of them.
func (a *streamAnalysis) joinFinal() {
	a.tracker.Advance(int(a.cfg.run.Net.LastAccrual() / a.binSize))
	if a.bins != nil {
		a.bins.DropBelow(a.tracker.Final())
	}
	a.joinReady()
}

// joinReady joins the queued records, in delivery order, up to the first
// whose End lies in a link bin the tracker has not scanned. Every
// recordShardTarget joined records seal an attribution part.
func (a *streamAnalysis) joinReady() {
	final := a.tracker.Final()
	for ; a.joinHead < len(a.joinQ); a.joinHead++ {
		r := &a.joinQ[a.joinHead]
		if int(r.End/a.binSize) >= final {
			break
		}
		a.join.Join(r)
		a.joined++
		if a.joined%recordShardTarget == 0 {
			a.join.SealPart()
			a.taskCnt.Inc()
		}
	}
	// Reclaim the joined prefix once it dominates the queue.
	if a.joinHead == len(a.joinQ) {
		a.joinQ, a.joinHead = a.joinQ[:0], 0
	} else if a.joinHead > 64 && a.joinHead > len(a.joinQ)/2 {
		n := copy(a.joinQ, a.joinQ[a.joinHead:])
		a.joinQ, a.joinHead = a.joinQ[:n], 0
	}
}

// dispatch computes a closing window from its slice copy. Windows
// arrive in boundary order, so Figure 10 bins reach the change ring in
// bin order and tomography windows park in the order that extends one
// warm-start chain.
func (a *streamAnalysis) dispatch(w *figWindow) {
	from, to := w.from, w.to
	slice := a.wv.Slice(from, to)
	a.taskCnt.Inc()
	switch w.kind {
	case winFig2:
		a.fig2M = tm.ServerMatrix(slice, a.numHosts, from, to)
	case winFig2Wide:
		// The pattern shares come from a 10×-longer window so they are
		// stable (a single 10 s window is dominated by whichever shuffle
		// is active).
		wide := tm.ServerMatrix(slice, a.numHosts, from, to)
		a.fig2Patterns = tm.SummarizePatterns(wide, a.top)
	case winFig34:
		m := tm.ServerMatrix(slice, a.numHosts, from, to)
		if m.NonZero() == 0 {
			return
		}
		s := &a.fig34Slots[w.idx]
		s.used = true
		s.es = tm.ComputeEntryStats(m, a.top)
		s.zeroWithin = s.es.PZeroWithinRack
		s.zeroAcross = s.es.PZeroAcrossRack
		s.cs = tm.ComputeCorrespondents(m, a.top)
	case winFig10:
		a.ring.Push(tm.ServerMatrix(slice, a.numHosts, from, to))
	case winTomo:
		// The estimator chain reads the job event log: park the window's
		// matrix until the log is final (solveParked).
		a.tomoParked = append(a.tomoParked, parkedWindow{idx: w.idx, from: from, truth: tm.TorMatrix(slice, a.top, from, to)})
		a.reg.Gauge("analyze.tomo.parked_windows_peak").SetMax(float64(len(a.tomoParked)))
	}
}

// solveParked solves the parked tomography windows in window order once
// the job event log their multipliers read is final. The log is final
// once the simulation clock has reached the run's horizon, because the
// closing Flush appends nothing to it. A finished run's log is final
// from the start, so the sweep solves each window at its own boundary;
// a RunAnalyze run's windows wait until its last batch has run.
func (a *streamAnalysis) solveParked(ctx context.Context) error {
	if len(a.tomoParked) == 0 {
		return nil
	}
	if rr := a.cfg.run; rr.Net.Now() < rr.Config.horizon() {
		return nil
	}
	for i := range a.tomoParked {
		if err := ctx.Err(); err != nil {
			return err
		}
		p := &a.tomoParked[i]
		a.tomoWindow(p.idx, p.from, p.truth)
		p.truth = nil
	}
	a.tomoParked = a.tomoParked[:0]
	return nil
}

// tomoWindow runs one tomography window through the shared warm-start
// estimator chain, replicating the sequential loop's skip-on-error
// semantics. Windows arrive in index order (the registry is sorted by
// boundary), so consecutive solvable windows warm-start exactly like a
// single chain over the whole series. truth is the ToR matrix of the
// window that starts at from.
func (a *streamAnalysis) tomoWindow(i int, from netsim.Time, truth *tm.Matrix) {
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

// mergeFigures reduces the record-derived figure slots into the report,
// in slot order.
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
		ByFlowsCDF: a.fig9.ByFlows.Points(100),
		ByBytesCDF: a.fig9.ByBytes.Points(100),
		Summary:    a.fig9.Summary(),
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
// solver-effort series.
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
			OverlapCDF:        a.join.Overlap.Points(100),
			AllCDF:            a.join.All.Points(100),
			MedianOverlapMbps: a.join.Overlap.Quantile(0.5),
			MedianAllMbps:     a.join.All.Quantile(0.5),
		}

		days := a.reads.Impact()
		var increases []float64
		for _, d := range days {
			if d.CongestedReads > 0 && d.ClearReads > 0 {
				increases = append(increases, d.IncreasePct)
			}
		}
		rep.Fig8 = Fig8Data{Period: cfg.Fig8Period, Days: days, MedianIncreasePct: stats.Median(increases)}

		rep.Attribution = a.join.Attribution()
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
