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
// simulate → materialize → analyze path, across seeds, GOMAXPROCS and
// the analyzer's worker count — including legs with a tiny live buffer
// that forces backpressure stalls.
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
		want := reportDigest(t, mustAnalyze(t, rr, WithSequential()))

		prev := runtime.GOMAXPROCS(0)
		type leg struct {
			gmp     int
			liveCap int // 0 = default live buffer
		}
		// A 256-record FIFO guarantees the simulator blocks on the
		// analyzer repeatedly; results must not change.
		matrix := []leg{{1, 256}, {1, 0}, {runtime.NumCPU(), 256}, {runtime.NumCPU(), 0}}
		if seed != 1 {
			matrix = []leg{{runtime.NumCPU(), 0}} // cross-seed spot check
		}
		for _, m := range matrix {
			runtime.GOMAXPROCS(m.gmp)
			opts := []AnalyzeOption{WithParallelism(8)}
			if m.liveCap > 0 {
				opts = append(opts, WithLiveBuffer(m.liveCap))
			}
			_, rep, err := RunAnalyze(context.Background(), cfg, opts...)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("seed %d GOMAXPROCS=%d live buffer %d: %v", seed, m.gmp, m.liveCap, err)
			}
			if got := reportDigest(t, rep); got != want {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("seed %d GOMAXPROCS=%d live buffer %d: fused digest %s != two-phase %s",
					seed, m.gmp, m.liveCap, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)

		// The sequential-analyzer escape hatch through the fused path.
		_, rep, err := RunAnalyze(context.Background(), cfg, WithSequential())
		if err != nil {
			t.Fatal(err)
		}
		if got := reportDigest(t, rep); got != want {
			t.Fatalf("seed %d: sequential fused digest %s != two-phase %s", seed, got, want)
		}
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
// registry must carry the trace.live.* gauges and the backpressure
// counter, with values consistent with a stream that actually flowed.
func TestRunAnalyzeObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	cfg := fusedTestConfig(1)
	reg := obs.NewRegistry()
	rr, _, err := RunAnalyze(context.Background(), cfg,
		WithRunOptions(WithObserver(reg)), WithLiveBuffer(64))
	if err != nil {
		t.Fatal(err)
	}
	snap := rr.Metrics
	if snap == nil {
		t.Fatal("no metrics snapshot")
	}
	if err := snap.Require("trace.live.", "pipeline."); err != nil {
		t.Fatal(err)
	}
	released := snap.Value("trace.live.released_total")
	if want := float64(len(rr.Records())); released != want {
		t.Fatalf("released_total %v, want %v (every record must pass through the seam)", released, want)
	}
	if peak := snap.Value("trace.live.buffered_peak"); peak <= 0 {
		t.Fatalf("buffered_peak %v, want > 0", peak)
	}
	if waits := snap.Value("pipeline.backpressure_waits"); waits <= 0 {
		t.Fatalf("backpressure_waits %v, want > 0 with a 64-record FIFO", waits)
	}
}

// TestRunAnalyzeCancellation cancels mid-stream and asserts the fused
// pipeline unwinds: RunAnalyze reports the cancellation (it joins the
// simulator goroutine before returning, so a hang here is a deadlock in
// the seam's error propagation).
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
