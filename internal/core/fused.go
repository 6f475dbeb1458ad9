package core

import (
	"context"

	"dctraffic/internal/trace"
)

// WithRunOptions forwards simulator options (WithProgress,
// WithObserver, WithMetricsSink, ...) to the run RunAnalyze launches.
// It is meaningful only to RunAnalyze; plain AnalyzeSource/AnalyzeRun
// ignore it.
func WithRunOptions(opts ...RunOption) AnalyzeOption {
	return func(c *analyzeConfig) { c.runOpts = append(c.runOpts, opts...) }
}

// RunAnalyze fuses the simulate and analyze phases on the calling
// goroutine: it builds the cluster and streams the completed-flow
// records through a trace.LiveSource into AnalyzeSource. The analysis
// pulls: whenever no record is releasable, the source runs one more
// event-loop batch, so the record-derived figures (2, 3/4, 9, 10, 11,
// the incast record pass) compute while the simulation is still
// producing. Congestion episodes are tracked as the link bins become
// final, and each record joins them (Figures 7 and 8, attribution) as
// soon as the bin holding its End is final; only tomography, whose
// windows park their ToR matrices until the job event log is final, and
// the overhead model wait for the end of the run. AnalyzeSource runs the
// same sweep as for a finished run: these rules read the run's state,
// not the caller. The §2 compression ratio is measured as records
// complete, on the collector's meter goroutine. The report is
// bit-identical to Run followed by AnalyzeRun at any GOMAXPROCS
// (enforced by TestRunAnalyzeMatchesTwoPhase).
//
// The collector hands each record to the source instead of logging it,
// so the returned RunResult has no record log (Records is nil,
// Collector.NumRecords counts them) and AnalyzeRun rejects it. Nor
// does it keep what the sweep consumed as the run went: its event log
// holds no read attempts (Log.Reads is nil; each went to Figure 8's
// tally), and its link stats hold no bins below the episode tracker's
// frontier (Net.Stats().First(), a few bins short of the end).
//
// Options: analysis options apply as in AnalyzeSource; WithRunOptions
// forwards simulator options. A simulator error (cancellation at a
// batch boundary, a failed metrics sink) is what RunAnalyze returns; an
// analysis error stops the run where it stands. Either way, and on a
// panic too, the meter is joined before RunAnalyze returns.
func RunAnalyze(ctx context.Context, cfg RunConfig, opts ...AnalyzeOption) (rr *RunResult, rep *Report, err error) {
	// Pre-scan the options for the run-side knobs (the scan writes the
	// analyze knobs into a throwaway config; AnalyzeSource re-applies
	// everything itself).
	var probe analyzeConfig
	for _, o := range opts {
		o(&probe)
	}

	p, err := prepareRun(cfg, probe.runOpts...)
	if err != nil {
		return nil, nil, err
	}
	var simErr error
	live := trace.NewLiveSource(func() (bool, error) {
		done, err := p.step(ctx)
		simErr = err
		return done, err
	})
	p.recordSink = live
	p.rr.Collector.SetSink(live.Emit)
	live.Instrument(p.o.reg)
	// The §2 compression meter consumes records as the simulator
	// completes them; the analysis joins it when it merges the figures.
	p.rr.Collector.StartCompressionMeter()
	defer func() {
		if rep == nil {
			p.rr.Collector.StopCompressionMeter()
		}
	}()

	rep, err = AnalyzeSource(ctx, live, append([]AnalyzeOption{WithRun(p.rr)}, opts...)...)
	if err != nil {
		if simErr != nil {
			return nil, nil, simErr
		}
		return nil, nil, err
	}
	return p.rr, rep, nil
}
