package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dctraffic/internal/stats"
)

// mustAnalyze runs the functional-options pipeline and fails the test on
// error — the test-side replacement for the deprecated Analyze shim.
func mustAnalyze(tb testing.TB, rr *RunResult, opts ...AnalyzeOption) *Report {
	tb.Helper()
	rep, err := AnalyzeRun(context.Background(), rr, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// sharedRun memoizes one small simulation + analysis across tests.
var (
	runOnce   sync.Once
	sharedRes *RunResult
	sharedRep *Report
	runErr    error
)

func smallRun(t *testing.T) (*RunResult, *Report) {
	t.Helper()
	runOnce.Do(func() {
		cfg := SmallRun()
		cfg.Duration = 90 * time.Minute
		cfg.DrainTime = 20 * time.Minute
		sharedRes, runErr = Simulate(cfg)
		if runErr == nil {
			sharedRep, runErr = AnalyzeRun(context.Background(), sharedRes)
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return sharedRes, sharedRep
}

// The incremental allocator must keep the pipeline deterministic: the
// same seed through Simulate + Analyze yields a byte-identical headline
// digest on repeated runs.
func TestSameSeedIdenticalDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("two full SmallRun simulations")
	}
	digest := func() []byte {
		rr, err := Simulate(SmallRun())
		if err != nil {
			t.Fatal(err)
		}
		j, err := mustAnalyze(t, rr).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b := digest(), digest()
	if string(a) != string(b) {
		t.Fatalf("same-seed digests differ:\n%s\nvs\n%s", a, b)
	}
}

func TestSimulateProducesTraffic(t *testing.T) {
	rr, _ := smallRun(t)
	if rr.Net.FlowsCompleted() < 100 {
		t.Fatalf("only %d flows completed", rr.Net.FlowsCompleted())
	}
	if len(rr.Records()) < 100 {
		t.Fatalf("only %d records collected", len(rr.Records()))
	}
	if len(rr.Cluster.Jobs()) == 0 {
		t.Fatal("no jobs ran")
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	if _, err := Simulate(RunConfig{}); err == nil {
		t.Fatal("zero duration should be rejected")
	}
	cfg := SmallRun()
	cfg.Topology.Racks = -1
	cfg.Duration = time.Minute
	if _, err := Simulate(cfg); err == nil {
		t.Fatal("bad topology should be rejected")
	}
}

func TestOverheadIsSmall(t *testing.T) {
	_, rep := smallRun(t)
	if rep.Overhead.TotalEvents == 0 {
		t.Fatal("no instrumentation events")
	}
	// §2: instrumentation cost is small single digits percent.
	if rep.Overhead.MedianCPUPct > 5 {
		t.Fatalf("CPU overhead %v%% too high", rep.Overhead.MedianCPUPct)
	}
	if rep.Overhead.MedianDiskPct > 5 {
		t.Fatalf("disk overhead %v%%", rep.Overhead.MedianDiskPct)
	}
}

func TestFig2WorkSeeksBandwidth(t *testing.T) {
	_, rep := smallRun(t)
	p := rep.Fig2.Patterns
	// Locality-aware placement should concentrate a large share of bytes
	// inside racks and VLANs.
	if p.WithinRackFraction < 0.2 {
		t.Fatalf("within-rack share %v — no work-seeks-bandwidth diagonal", p.WithinRackFraction)
	}
	if p.WithinVLANFraction <= p.WithinRackFraction {
		t.Fatal("VLAN share must include rack share")
	}
	if rep.Fig2.TM.Total() <= 0 {
		t.Fatal("empty Fig2 window")
	}
}

func TestFig3SparsityOrdering(t *testing.T) {
	_, rep := smallRun(t)
	e := rep.Fig3.Entries
	// Cross-rack pairs must be silent more often than in-rack pairs, and
	// both should be mostly silent (the paper: 0.89 and 0.995).
	if e.PZeroAcrossRack <= e.PZeroWithinRack {
		t.Fatalf("zero-prob ordering violated: within %v, across %v",
			e.PZeroWithinRack, e.PZeroAcrossRack)
	}
	if e.PZeroWithinRack < 0.3 {
		t.Fatalf("within-rack zero probability %v implausibly low", e.PZeroWithinRack)
	}
}

func TestFig4Correspondents(t *testing.T) {
	_, rep := smallRun(t)
	s := rep.Fig4.Stats
	// Medians are small (paper: 2 and 4) — definitely far below "talks
	// to everyone".
	if s.MedianWithinCount > 8 {
		t.Fatalf("median within-rack correspondents %v too high", s.MedianWithinCount)
	}
	if s.MedianAcrossCount > 25 {
		t.Fatalf("median across-rack correspondents %v too high", s.MedianAcrossCount)
	}
}

func TestFig5CongestionExists(t *testing.T) {
	_, rep := smallRun(t)
	if len(rep.Fig5.Episodes) == 0 {
		t.Fatal("no congestion episodes — workload too light to reproduce §4.2")
	}
	if rep.Fig5.FracLinks10s <= 0 {
		t.Fatal("no link saw a ≥10s episode")
	}
	// Long congestion is rarer than short congestion.
	if rep.Fig5.FracLinks100s > rep.Fig5.FracLinks10s {
		t.Fatal("≥100s link fraction exceeds ≥10s fraction")
	}
}

func TestFig6MostEpisodesShort(t *testing.T) {
	_, rep := smallRun(t)
	if rep.Fig6.Episodes == 0 {
		t.Fatal("no episodes")
	}
	if rep.Fig6.FracUnder10 < 0.5 {
		t.Fatalf("only %v of episodes ≤ 10s; paper reports >90%%", rep.Fig6.FracUnder10)
	}
}

func TestFig8FailuresCorrelateWithCongestion(t *testing.T) {
	_, rep := smallRun(t)
	// Aggregate over periods: failures should be more likely on
	// congested paths (the stall-boost mechanism the paper observed).
	var cong, clear, congFail, clearFail float64
	for _, d := range rep.Fig8.Days {
		cong += float64(d.CongestedReads) * d.PFailCongested
		congFail += float64(d.CongestedReads)
		clear += float64(d.ClearReads) * d.PFailClear
		clearFail += float64(d.ClearReads)
	}
	if congFail == 0 || clearFail == 0 {
		t.Skip("no reads in one class; workload too small for this assertion")
	}
	pc, pl := cong/congFail, clear/clearFail
	if pc <= pl {
		t.Fatalf("P(fail|congested)=%v <= P(fail|clear)=%v", pc, pl)
	}
}

func TestFig9FlowDurations(t *testing.T) {
	_, rep := smallRun(t)
	s := rep.Fig9.Summary
	// Most flows are short (paper: >80% under 10 s).
	if s.FracShorterThan10s < 0.6 {
		t.Fatalf("only %v of flows under 10s", s.FracShorterThan10s)
	}
	// Very long flows are rare.
	if s.FracLongerThan200s > 0.05 {
		t.Fatalf("%v of flows over 200s", s.FracLongerThan200s)
	}
}

func TestFig10ChangeDespiteFlatTotals(t *testing.T) {
	_, rep := smallRun(t)
	if rep.Fig10.MedianChange10s <= 0.1 {
		t.Fatalf("median 10s change %v — TM should churn", rep.Fig10.MedianChange10s)
	}
	if len(rep.Fig10.Magnitude) == 0 {
		t.Fatal("no magnitude series")
	}
}

func TestFig11InterArrivals(t *testing.T) {
	_, rep := smallRun(t)
	if rep.Fig11.ArrivalPerSec <= 0 {
		t.Fatal("no arrivals")
	}
	if len(rep.Fig11.ServerCDF) == 0 || len(rep.Fig11.TorCDF) == 0 || len(rep.Fig11.ClusterCDF) == 0 {
		t.Fatal("missing inter-arrival CDFs")
	}
	// The stop-and-go pacing timer produces periodic modes near 15 ms.
	if rep.Fig11.ModeMs < 10 || rep.Fig11.ModeMs > 20 {
		t.Fatalf("server inter-arrival mode %v ms, want ~15 ms", rep.Fig11.ModeMs)
	}
}

func TestFig12TomographyOrdering(t *testing.T) {
	_, rep := smallRun(t)
	if rep.Fig12.NumTMs == 0 {
		t.Fatal("no tomography instances")
	}
	// The paper's key §5 findings: tomogravity errs substantially on DC
	// traffic, and sparsity maximization is worse.
	if rep.Fig12.MedianTomogravity < 0.10 {
		t.Fatalf("tomogravity median RMSRE %v — too accurate; DC TMs should break the gravity prior",
			rep.Fig12.MedianTomogravity)
	}
	if rep.Fig12.MedianSparsityMax < rep.Fig12.MedianTomogravity {
		t.Fatalf("sparsity-max (%v) should be worse than tomogravity (%v)",
			rep.Fig12.MedianSparsityMax, rep.Fig12.MedianTomogravity)
	}
	// Job prior helps at most marginally, and must not be catastrophic.
	if rep.Fig12.MedianTomogravityJobs > rep.Fig12.MedianTomogravity*2 {
		t.Fatalf("job prior made things much worse: %v vs %v",
			rep.Fig12.MedianTomogravityJobs, rep.Fig12.MedianTomogravity)
	}
}

func TestFig14SparsityOrdering(t *testing.T) {
	_, rep := smallRun(t)
	// Truth is sparser than tomogravity and denser than sparsity-max —
	// compare medians of the fraction-of-entries CDFs.
	truth := medianOfCDF(rep.Fig14.TruthCDF)
	tg := medianOfCDF(rep.Fig14.TomogravityCDF)
	sm := medianOfCDF(rep.Fig14.SparsityCDF)
	if !(sm <= truth && truth <= tg) {
		t.Fatalf("sparsity ordering violated: sm=%v truth=%v tomogravity=%v", sm, truth, tg)
	}
}

func TestIncastAudit(t *testing.T) {
	_, rep := smallRun(t)
	if rep.Incast.MaxSimultaneousConnections != 2 {
		t.Fatalf("connection cap %d, want 2", rep.Incast.MaxSimultaneousConnections)
	}
	if rep.Incast.FracFlowsWithinVLAN < rep.Incast.FracFlowsWithinRack {
		t.Fatal("VLAN fraction must include rack fraction")
	}
}

func TestReportText(t *testing.T) {
	_, rep := smallRun(t)
	txt := rep.Text()
	for _, want := range []string{"Fig 2", "Fig 9", "Fig 12", "incast", "tomogravity median"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("report text missing %q", want)
		}
	}
}

func TestHeatASCII(t *testing.T) {
	rr, rep := smallRun(t)
	heat := HeatASCII(rep.Fig2.TM, 40)
	lines := strings.Split(strings.TrimRight(heat, "\n"), "\n")
	if len(lines) != 40 {
		t.Fatalf("heat map has %d rows, want 40", len(lines))
	}
	// The map must contain some non-blank structure.
	if !strings.ContainsAny(heat, ".:-=+*#%@") {
		t.Fatal("heat map is blank")
	}
	_ = rr
}

// medianOfCDF extracts the x at y>=0.5 from CDF plot points.
func medianOfCDF(pts []stats.Point) float64 {
	for _, p := range pts {
		if p.Y >= 0.5 {
			return p.X
		}
	}
	if len(pts) > 0 {
		return pts[len(pts)-1].X
	}
	return 0
}
