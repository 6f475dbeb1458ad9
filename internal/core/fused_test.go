package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"dctraffic/internal/obs"
	"dctraffic/internal/trace"
)

// fusedTestConfig is the shortened simulation the fused tests share.
func fusedTestConfig(seed uint64) RunConfig {
	cfg := SmallRun()
	cfg.Duration = 20 * time.Minute
	cfg.DrainTime = 10 * time.Minute
	cfg.Seed = seed
	return cfg
}

// TestRunAnalyzeMatchesTwoPhase is the acceptance gate of the fused
// pipeline: RunAnalyze's report must be bit-identical to the two-phase
// simulate → materialize → analyze path, across seeds and GOMAXPROCS.
func TestRunAnalyzeMatchesTwoPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("a matrix of full simulations")
	}
	for _, seed := range []uint64{1, 7} {
		cfg := fusedTestConfig(seed)
		rr, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := reportDigest(t, mustAnalyze(t, rr))

		prev := runtime.GOMAXPROCS(0)
		procs := []int{1, runtime.NumCPU()}
		if seed != 1 {
			procs = []int{runtime.NumCPU()} // cross-seed spot check
		}
		for _, gmp := range procs {
			runtime.GOMAXPROCS(gmp)
			_, rep, err := RunAnalyze(context.Background(), cfg)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("seed %d GOMAXPROCS=%d: %v", seed, gmp, err)
			}
			if got := reportDigest(t, rep); got != want {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("seed %d GOMAXPROCS=%d: fused digest %s != two-phase %s",
					seed, gmp, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRunAnalyzeReassemblyMatches covers the stateful windowed
// reassembler across the fused seam: §3 flow-boundary merging must not
// depend on whether records arrive from a sorted slice or live from the
// simulator.
func TestRunAnalyzeReassemblyMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("two full simulations")
	}
	cfg := fusedTestConfig(1)
	rr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportDigest(t, mustAnalyze(t, rr, WithInactivityTimeout(60*time.Second)))
	_, rep, err := RunAnalyze(context.Background(), cfg, WithInactivityTimeout(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := reportDigest(t, rep); got != want {
		t.Fatalf("fused reassembly digest %s != two-phase %s", got, want)
	}
}

// TestRunAnalyzeObservability checks the seam's metrics: the run
// registry must carry the trace.live.* series, with values consistent
// with a stream that actually flowed.
func TestRunAnalyzeObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	cfg := fusedTestConfig(1)
	reg := obs.NewRegistry()
	rr, _, err := RunAnalyze(context.Background(), cfg, WithRunOptions(WithObserver(reg)))
	if err != nil {
		t.Fatal(err)
	}
	snap := rr.Metrics
	if snap == nil {
		t.Fatal("no metrics snapshot")
	}
	if err := snap.Require("trace.live."); err != nil {
		t.Fatal(err)
	}
	released := snap.Value("trace.live.released_total")
	if want := float64(rr.Collector.NumRecords()); released != want {
		t.Fatalf("released_total %v, want %v (every record must pass through the seam)", released, want)
	}
	if peak := snap.Value("trace.live.buffered_peak"); peak <= 0 {
		t.Fatalf("buffered_peak %v, want > 0", peak)
	}
	if steps := snap.Value("trace.live.step_seconds"); steps <= 0 {
		t.Fatalf("step_seconds %v, want > 0 (the sweep stepped the simulator)", steps)
	}
}

// TestTomographySchedule pins when the sweep solves tomography windows.
// A finished run's event log is final, so AnalyzeRun solves each window
// at its own boundary and never parks more than one ToR matrix. A
// RunAnalyze run's log is final only after its last batch, so its
// windows wait parked. Both give the same report.
func TestTomographySchedule(t *testing.T) {
	cfg := fusedTestConfig(1)
	cfg.Duration = 10 * time.Minute
	rr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rep, err := AnalyzeRun(context.Background(), rr, WithAnalysisObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	if peak := reg.Snapshot().Value("analyze.tomo.parked_windows_peak"); peak != 1 {
		t.Fatalf("AnalyzeRun parked up to %v tomography windows, want 1", peak)
	}
	liveReg := obs.NewRegistry()
	_, liveRep, err := RunAnalyze(context.Background(), cfg, WithAnalysisObserver(liveReg))
	if err != nil {
		t.Fatal(err)
	}
	if peak := liveReg.Snapshot().Value("analyze.tomo.parked_windows_peak"); peak <= 1 {
		t.Fatalf("RunAnalyze parked up to %v tomography windows, want more than 1", peak)
	}
	if got, want := reportDigest(t, liveRep), reportDigest(t, rep); got != want {
		t.Fatalf("RunAnalyze digest %s != AnalyzeRun %s", got, want)
	}
}

// TestRunAnalyzeKeepsNoLog checks that a fused run's collector hands
// its records to the analysis without logging them, that a plain Run
// still keeps its log, and that AnalyzeRun rejects a run without one
// instead of analyzing zero records.
func TestRunAnalyzeKeepsNoLog(t *testing.T) {
	cfg := fusedTestConfig(1)
	cfg.Duration = 10 * time.Minute
	rr, _, err := RunAnalyze(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := rr.Collector.NumRecords(); rr.Records() != nil || n <= 0 {
		t.Fatalf("fused run kept %d logged records of %d collected, want none of some", len(rr.Records()), n)
	}
	if _, err := AnalyzeRun(context.Background(), rr); err == nil {
		t.Fatal("AnalyzeRun analyzed a run without its record log")
	}
	plain, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(plain.Records()), plain.Collector.NumRecords(); got != want || got != rr.Collector.NumRecords() {
		t.Fatalf("plain run logged %d of %d records, fused run collected %d", got, want, rr.Collector.NumRecords())
	}
}

// TestRunAnalyzeOneGoroutine pins the pull seam: the analysis steps the
// simulator on the caller's goroutine, so while the event loop runs the
// only goroutine RunAnalyze adds is the collector's compression meter.
func TestRunAnalyzeOneGoroutine(t *testing.T) {
	cfg := fusedTestConfig(1)
	cfg.Duration = 10 * time.Minute
	base := runtime.NumGoroutine()
	most := 0
	_, _, err := RunAnalyze(context.Background(), cfg, WithRunOptions(WithProgress(func(Progress) {
		most = max(most, runtime.NumGoroutine())
	})))
	if err != nil {
		t.Fatal(err)
	}
	if most == 0 {
		t.Fatal("no progress callback ran")
	}
	if most > base+1 {
		t.Fatalf("%d goroutines during the run, want <= %d (the caller's and the meter)", most, base+1)
	}
	settleGoroutines(t, "finished RunAnalyze", base)
}

// TestRunAnalyzeCancellation cancels mid-stream and asserts the fused
// pipeline unwinds: RunAnalyze reports the cancellation, which the next
// simulator step returns (a hang here means the step error did not stop
// the sweep).
func TestRunAnalyzeCancellation(t *testing.T) {
	cfg := fusedTestConfig(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := RunAnalyze(ctx, cfg,
			WithRunOptions(WithProgress(func(p Progress) {
				if p.SimTime >= 5*time.Minute {
					once.Do(cancel)
				}
			}), WithProgressInterval(time.Minute)))
		if err == nil {
			t.Error("canceled fused run: want error")
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled fused run: got %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("fused pipeline did not unwind after cancellation")
	}
}

// TestRunAnalyzeSimulatorError: a simulator step that fails (here the
// final metrics sink write) fails RunAnalyze with the simulator's own
// error, returns neither result nor report, and joins the meter.
func TestRunAnalyzeSimulatorError(t *testing.T) {
	cfg := fusedTestConfig(1)
	cfg.Duration = 10 * time.Minute
	base := runtime.NumGoroutine()
	rr, rep, err := RunAnalyze(context.Background(), cfg, WithRunOptions(WithMetricsSink(failWriter{})))
	if !errors.Is(err, errSink) {
		t.Fatalf("RunAnalyze with a failing metrics sink: got %v, want %v", err, errSink)
	}
	if rr != nil || rep != nil {
		t.Fatalf("failed RunAnalyze returned result %v and report %v, want neither", rr != nil, rep != nil)
	}
	settleGoroutines(t, "RunAnalyze with a failing metrics sink", base)
}

// TestRunAnalyzePanicStopsMeter: a panic inside the analysis unwinds
// RunAnalyze and AnalyzeRun with the compression meter joined, so a
// caller that recovers it (the fleet does, per run) is left with no
// goroutine of the run's.
func TestRunAnalyzePanicStopsMeter(t *testing.T) {
	cfg := fusedTestConfig(1)
	cfg.Duration = 10 * time.Minute
	base := runtime.NumGoroutine()
	boom := WithStreamProgress(func(StreamProgress) { panic("injected") })

	mustPanic(t, "RunAnalyze", func() { RunAnalyze(context.Background(), cfg, boom) })
	settleGoroutines(t, "RunAnalyze after a recovered panic", base)

	rr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "AnalyzeRun", func() { AnalyzeRun(context.Background(), rr, boom) })
	settleGoroutines(t, "AnalyzeRun after a recovered panic", base)
}

// mustPanic runs fn and fails unless it panics with "injected".
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != "injected" {
			t.Fatalf("%s: recovered %v, want the injected panic", what, r)
		}
	}()
	fn()
}

// settleGoroutines waits for the goroutine count to fall back to base,
// failing with every goroutine's stack if it does not.
func settleGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if runtime.NumGoroutine() <= base {
			return
		}
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("%s: %d goroutines left, want <= %d:\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// failingSource delivers a few records of rr, then fails.
type failingSource struct {
	src trace.Source
	n   int
}

func (s *failingSource) Next() (trace.FlowRecord, error) {
	if s.n == 0 {
		return trace.FlowRecord{}, errors.New("injected source failure")
	}
	s.n--
	return s.src.Next()
}

// TestCompressionMeterJoinedOnFailure: the §2 compression meter runs
// alongside the simulation and the analysis, and every failing exit
// must join it. A canceled RunAnalyze, a canceled AnalyzeRun (before
// and during the sweep) and a failed AnalyzeSource leave no goroutine
// behind, and a run whose analysis failed still reports the
// same digest when analyzed again.
func TestCompressionMeterJoinedOnFailure(t *testing.T) {
	cfg := fusedTestConfig(1)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	_, _, err := RunAnalyze(ctx, cfg, WithRunOptions(WithProgress(func(p Progress) {
		if p.SimTime >= 5*time.Minute {
			once.Do(cancel)
		}
	})))
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled RunAnalyze: got %v, want context.Canceled", err)
	}
	settleGoroutines(t, "canceled RunAnalyze", base)

	rr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeRun(dead, rr); err == nil {
		t.Fatal("AnalyzeRun on a canceled context: want error")
	}
	settleGoroutines(t, "AnalyzeRun on a canceled context", base)

	ctx, cancel = context.WithCancel(context.Background())
	if _, err := AnalyzeRun(ctx, rr, WithStreamProgress(func(StreamProgress) { cancel() })); err == nil {
		t.Fatal("AnalyzeRun canceled mid-sweep: want error")
	}
	cancel()
	settleGoroutines(t, "AnalyzeRun canceled mid-sweep", base)

	src := &failingSource{src: rr.Source(), n: 100}
	if _, err := AnalyzeSource(context.Background(), src, WithRun(rr)); err == nil {
		t.Fatal("AnalyzeSource on a failing source: want error")
	}
	settleGoroutines(t, "AnalyzeSource on a failing source", base)

	got := reportDigest(t, mustAnalyze(t, rr))
	fresh, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := reportDigest(t, mustAnalyze(t, fresh)); got != want {
		t.Fatalf("analysis after failed analyses: digest %s != fresh run %s", got, want)
	}
	settleGoroutines(t, "successful AnalyzeRun", base)
}
