package fleet

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dctraffic/internal/core"
)

// sweepConfig is one tiny fused pipeline: 4×4 servers, 30 simulated
// minutes — big enough that every seed produces records, small enough
// that the standalone×fleet matrix stays cheap.
func sweepConfig(seed uint64, multipath bool) core.RunConfig {
	cfg := core.SmallRun()
	cfg.Topology.Racks = 4
	cfg.Topology.ServersPerRack = 4
	cfg.Topology.MultiPath = multipath
	cfg.Duration = 30 * time.Minute
	cfg.DrainTime = 5 * time.Minute
	cfg.Sched.JobsPerHour = 150 * 16.0 / 80
	cfg.Seed = seed
	cfg.Sched.Seed = seed
	return cfg
}

func testSpecs() []RunSpec {
	return []RunSpec{
		{Name: "seed1-tree", Config: sweepConfig(1, false)},
		{Name: "seed2-tree", Config: sweepConfig(2, false)},
		{Name: "seed1-multipath", Config: sweepConfig(1, true)},
	}
}

// TestFleetMatchesStandalone is the acceptance gate of the cross-run
// determinism contract: per-run report digests must be bit-identical to
// standalone core.RunAnalyze at fleet concurrency 1, 2 and NumCPU, and
// under a memory budget so tight that admission control serializes the
// sweep.
func TestFleetMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("3 standalone + 12 fleet pipeline executions")
	}
	specs := testSpecs()
	want := make([]string, len(specs))
	for i, sp := range specs {
		_, rep, err := core.RunAnalyze(context.Background(), sp.Config)
		if err != nil {
			t.Fatalf("standalone %s: %v", sp.Name, err)
		}
		d, err := core.ReportDigest(rep)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}

	legs := []struct {
		name string
		opts Options
	}{
		{"conc1", Options{Concurrency: 1, MaxHeapMB: -1}},
		{"conc2", Options{Concurrency: 2, MaxHeapMB: -1}},
		{"concNumCPU", Options{Concurrency: runtime.NumCPU(), MaxHeapMB: -1}},
		// One run's estimate exceeds the whole budget: every run is
		// admitted alone, forcing full serialization mid-flight.
		{"tinyBudget", Options{Concurrency: 2, MaxHeapMB: 1}},
	}
	for _, leg := range legs {
		res, err := Execute(context.Background(), specs, leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s: %d runs failed: %+v", leg.name, res.Failed, res.Outcomes)
		}
		if len(res.Outcomes) != len(specs) {
			t.Fatalf("%s: %d outcomes, want %d", leg.name, len(res.Outcomes), len(specs))
		}
		for i, o := range res.Outcomes {
			if o.Index != i || o.Name != specs[i].Name {
				t.Fatalf("%s: outcome %d is %q (index %d), want %q — merge order broken",
					leg.name, i, o.Name, o.Index, specs[i].Name)
			}
			if o.Digest != want[i] {
				t.Fatalf("%s: run %s digest %s != standalone %s", leg.name, o.Name, o.Digest, want[i])
			}
			if o.Records <= 0 {
				t.Fatalf("%s: run %s analyzed no records", leg.name, o.Name)
			}
			if o.SimMetrics == nil || o.AnalyzeMetrics == nil {
				t.Fatalf("%s: run %s missing registry snapshots", leg.name, o.Name)
			}
		}
		if err := res.Metrics.Require("fleet.", "netsim.", "trace.", "analyze.",
			"run0.netsim.", "run1.netsim.", "run2.analyze."); err != nil {
			t.Fatalf("%s: merged snapshot: %v", leg.name, err)
		}
		if got := res.Metrics.Value("fleet.runs_total"); got != float64(len(specs)) {
			t.Fatalf("%s: fleet.runs_total = %v, want %d", leg.name, got, len(specs))
		}
		// Two tree runs share a topology config; multipath differs.
		if hits := res.Metrics.Value("fleet.topo_cache_hits_total"); hits < 1 {
			t.Fatalf("%s: topology cache never hit (hits=%v)", leg.name, hits)
		}
		if misses := res.Metrics.Value("fleet.topo_cache_misses_total"); misses != 2 {
			t.Fatalf("%s: topo cache misses = %v, want 2 distinct configs", leg.name, misses)
		}
		if leg.name == "tinyBudget" {
			if waits := res.Metrics.Value("fleet.admission_waits_total"); waits < 1 {
				t.Fatalf("tinyBudget: admission gate never blocked (waits=%v)", waits)
			}
			var anyWaited bool
			for _, o := range res.Outcomes {
				anyWaited = anyWaited || o.Waited
			}
			if !anyWaited {
				t.Fatal("tinyBudget: no outcome records an admission wait")
			}
		}
	}
}

// TestFleetRaceSmoke is the race-detector leg for the executor: two
// concurrent pipelines sharing the topology cache and the admission
// gate. Results are still checked against each other (same seed, same
// fabric → same digest).
func TestFleetRaceSmoke(t *testing.T) {
	specs := []RunSpec{
		{Name: "a", Config: sweepConfig(1, false)},
		{Name: "b", Config: sweepConfig(1, false)},
	}
	res, err := Execute(context.Background(), specs, Options{
		Concurrency: 2,
		MaxHeapMB:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d runs failed: %+v", res.Failed, res.Outcomes)
	}
	if res.Outcomes[0].Digest != res.Outcomes[1].Digest {
		t.Fatalf("identical configs diverged: %s vs %s",
			res.Outcomes[0].Digest, res.Outcomes[1].Digest)
	}
}

// TestFleetCanceledContext: a dead context fails every run but Execute
// still returns the full fixed-order merge.
func TestFleetCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := testSpecs()
	res, err := Execute(ctx, specs, Options{MaxHeapMB: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != len(specs) {
		t.Fatalf("Failed = %d, want %d", res.Failed, len(specs))
	}
	for i, o := range res.Outcomes {
		if o.Err == nil {
			t.Fatalf("outcome %d: nil Err under canceled context", i)
		}
	}
}

// TestFleetEmptySpecs: a zero-run sweep merges to an empty result.
func TestFleetEmptySpecs(t *testing.T) {
	res, err := Execute(context.Background(), nil, Options{MaxHeapMB: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 0 || res.Failed != 0 {
		t.Fatalf("got %+v, want empty", res)
	}
}

func TestMemGateBlocksAndAdmitsOversize(t *testing.T) {
	g := newMemGate(100)
	if g.acquire(80) {
		t.Fatal("first acquire must not wait")
	}
	done := make(chan bool)
	go func() { done <- g.acquire(30) }()
	// The second acquire must block; wait until the gate has seen it,
	// then release. Its return value proves it waited.
	for g.waitCount() == 0 {
		runtime.Gosched()
	}
	g.release(80)
	if !<-done {
		t.Fatal("second acquire reported no wait")
	}
	g.release(30)

	// Oversize request with an idle gate: admitted alone, no deadlock.
	if g.acquire(10_000) {
		t.Fatal("oversize acquire on an idle gate must not wait")
	}
	g.release(10_000)

	// Disabled gate is a no-op.
	off := newMemGate(-1)
	if off.acquire(1 << 30) {
		t.Fatal("disabled gate must never wait")
	}
}

func TestEstimatePeakMBDeterministicAndMonotone(t *testing.T) {
	small := sweepConfig(1, false)
	if EstimatePeakMB(small) != EstimatePeakMB(small) {
		t.Fatal("estimate not deterministic")
	}
	longer := small
	longer.Duration = 4 * time.Hour
	if EstimatePeakMB(longer) <= EstimatePeakMB(small) {
		t.Fatal("longer run must estimate more memory")
	}
	bigger := small
	bigger.Topology.Racks = 75
	bigger.Topology.ServersPerRack = 20
	if EstimatePeakMB(bigger) <= EstimatePeakMB(small) {
		t.Fatal("bigger cluster must estimate more memory")
	}
}

// TestFleetFailedAnalysisLeavesNoGoroutine: a run whose analysis fails
// mid-sweep (its context is canceled from the analysis progress hook)
// fails alone in its outcome, and the executor returns with every
// goroutine it started joined — each run's own and its compression
// meter.
func TestFleetFailedAnalysisLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := Execute(ctx, testSpecs()[:1], Options{
		MaxHeapMB: -1,
		AnalyzeOpts: []core.AnalyzeOption{core.WithStreamProgress(func(p core.StreamProgress) {
			if p.Time >= 10*time.Minute {
				once.Do(cancel)
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Outcomes[0].Err == nil {
		t.Fatalf("Failed = %d, outcome err %v; want the run to fail", res.Failed, res.Outcomes[0].Err)
	}
	settleGoroutines(t, base)
}

// TestFleetIsolatesRunPanic: a panic in one run fails that run alone.
// Its outcome carries the panic and the stack, the other runs finish
// with their standalone digests, and every goroutine the sweep started
// is joined, the panicked run's compression meter included.
func TestFleetIsolatesRunPanic(t *testing.T) {
	specs := testSpecs()
	want := make([]string, len(specs))
	for i, sp := range specs[1:] {
		_, rep, err := core.RunAnalyze(context.Background(), sp.Config)
		if err != nil {
			t.Fatalf("standalone %s: %v", sp.Name, err)
		}
		if want[i+1], err = core.ReportDigest(rep); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()
	// Concurrency 1 runs the specs in order, so the first progress
	// call, the one that panics, is run 0's.
	var fired atomic.Bool
	res, err := Execute(context.Background(), specs, Options{
		Concurrency: 1,
		MaxHeapMB:   -1,
		AnalyzeOpts: []core.AnalyzeOption{core.WithStreamProgress(func(core.StreamProgress) {
			if !fired.Swap(true) {
				panic("injected")
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("Failed = %d, want 1: %+v", res.Failed, res.Outcomes)
	}
	o := res.Outcomes[0]
	if o.Err == nil || !strings.Contains(o.Err.Error(), "panic: injected") {
		t.Fatalf("run 0 error %v, want the injected panic", o.Err)
	}
	if !strings.Contains(o.Err.Error(), "executeOne") {
		t.Fatalf("run 0 error carries no stack:\n%v", o.Err)
	}
	if o.Report != nil || o.Digest != "" {
		t.Fatalf("panicked run kept report %v and digest %q", o.Report != nil, o.Digest)
	}
	for i, o := range res.Outcomes[1:] {
		if o.Err != nil || o.Digest != want[i+1] {
			t.Fatalf("run %s: err %v, digest %s, want standalone %s", o.Name, o.Err, o.Digest, want[i+1])
		}
	}
	settleGoroutines(t, base)
}

// settleGoroutines waits for the goroutine count to fall back to base,
// failing with every goroutine's stack if it does not.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines left, want <= %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
