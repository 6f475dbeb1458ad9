package core

import (
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/snmp"
	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/tomo"
)

// TestPaperScaleSmoke runs the 1500-server topology for a short window to
// verify the paper-scale configuration works end to end. Skipped with
// -short; the full day is exercised via cmd/dcsim.
func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke test skipped in -short mode")
	}
	cfg := PaperRun()
	cfg.Duration = 10 * time.Minute
	cfg.DrainTime = 5 * time.Minute
	rr, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Top.NumServers() != 1500 {
		t.Fatalf("paper scale should be 1500 servers, got %d", rr.Top.NumServers())
	}
	if len(rr.Records()) < 1000 {
		t.Fatalf("only %d flows at paper scale in 10 minutes", len(rr.Records()))
	}
	rep := mustAnalyze(t, rr)
	if rep.Fig9.Summary.NumFlows == 0 {
		t.Fatal("analysis empty at paper scale")
	}
	// The bigger cluster must make the cross-rack zero probability climb
	// toward the paper's 0.995 relative to the small run.
	if rep.Fig3.Entries.PZeroAcrossRack < 0.97 {
		t.Fatalf("P(zero|cross) = %v at 75 racks, expected > 0.97",
			rep.Fig3.Entries.PZeroAcrossRack)
	}
}

// TestAnalyzeWithReassembly checks the §3 methodology option: merging
// same-five-tuple records can only reduce the flow count.
func TestAnalyzeWithReassembly(t *testing.T) {
	rr, rep := smallRun(t)
	merged := mustAnalyze(t, rr, WithInactivityTimeout(60*time.Second))
	if merged.Fig9.Summary.NumFlows > rep.Fig9.Summary.NumFlows {
		t.Fatalf("reassembly grew the flow count: %d > %d",
			merged.Fig9.Summary.NumFlows, rep.Fig9.Summary.NumFlows)
	}
	if merged.Fig9.Summary.NumFlows == 0 {
		t.Fatal("reassembly destroyed all flows")
	}
}

// TestNoSuperLargeFlows checks the paper's conclusion: "We did not see
// evidence of super large flows (flow sizes being determined largely by
// chunking considerations)". The largest flow should be within a small
// factor of the extent size, not an unbounded elephant.
func TestNoSuperLargeFlows(t *testing.T) {
	rr, _ := smallRun(t)
	var maxFlow int64
	for _, r := range rr.Records() {
		maxFlow = max(maxFlow, r.Bytes)
	}
	extent := rr.Store.Config().ExtentBytes
	if maxFlow > 4*extent {
		t.Fatalf("super-large flow found: %d bytes vs %d-byte extents", maxFlow, extent)
	}
	if maxFlow == 0 {
		t.Fatal("no flows at all")
	}
}

// TestMultipathReducesCongestion runs the same workload on the paper's
// tree and on a VL2-style multipath fabric with the same total ToR uplink
// budget: per-flow ECMP over four aggs should shrink long congestion on
// the ToR layer — the architecture-evaluation use the paper motivates.
func TestMultipathReducesCongestion(t *testing.T) {
	run := func(multipath bool) float64 {
		cfg := SmallRun()
		cfg.Duration = time.Hour
		cfg.DrainTime = 20 * time.Minute
		cfg.Topology.MultiPath = multipath
		if multipath {
			cfg.Topology.AggSwitches = 4
		}
		rr, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := mustAnalyze(t, rr)
		// Long episodes (>=10s) are the robust comparison: ECMP trades a
		// few saturated trunk links for many brief collisions on the
		// (4x smaller) per-agg links, so total congested seconds are
		// noisy, but sustained hot links shrink decisively.
		var longSec float64
		for _, e := range rep.Fig5.Episodes {
			if d := e.Duration().Seconds(); d >= 10 {
				longSec += d
			}
		}
		return longSec / float64(rep.Fig5.LinksMonitored)
	}
	tree := run(false)
	multi := run(true)
	if tree <= 0 {
		t.Skip("no long congestion in the tree run; cannot compare")
	}
	if multi >= tree {
		t.Fatalf("multipath long-congestion s/link (%v) should be below tree (%v)", multi, tree)
	}
}

// TestSNMPCountersDegradeTomography runs the full SNMP path: polled,
// jittered counters instead of exact per-window link counts. Tomogravity
// degrades and the exact-feasibility sparsity-max LP usually becomes
// infeasible, because polled counters include bytes (ingest/egress) the
// ToR-to-ToR flow model cannot explain.
func TestSNMPCountersDegradeTomography(t *testing.T) {
	rr, _ := smallRun(t)
	problem := tomo.NewProblem(rr.Top)
	bin := netsim.Time(10 * time.Minute)
	series := tm.TorSeries(rr.Records(), rr.Top, bin, rr.Config.Duration)
	polled := snmp.Collect(rr.Net.Stats(), rr.Top.InterSwitchLinks(), rr.Config.Duration,
		snmp.Config{Interval: 5 * time.Minute, JitterFrac: 0.05}, stats.NewRNG(9))
	var exact, fromPolls []float64
	smFailures, smAttempts := 0, 0
	for i, truth := range series {
		if truth.Total() <= 0 {
			continue
		}
		xTrue := problem.VecFromTM(truth)
		if est, err := problem.Tomogravity(problem.LinkCounts(truth)); err == nil {
			exact = append(exact, tomo.RMSRE(xTrue, est, 0.75))
		}
		from := netsim.Time(i) * bin
		counts, _ := snmp.WindowCounts(polled, from, from+bin, 64)
		if est, err := problem.Tomogravity(counts); err == nil {
			fromPolls = append(fromPolls, tomo.RMSRE(xTrue, est, 0.75))
		}
		smAttempts++
		if _, err := problem.SparsityMax(counts); err != nil {
			smFailures++
		}
	}
	if len(exact) == 0 || len(fromPolls) == 0 {
		t.Fatal("no tomography instances")
	}
	if stats.Median(fromPolls) <= stats.Median(exact) {
		t.Fatalf("polled counters should degrade tomogravity: exact %v, polled %v",
			stats.Median(exact), stats.Median(fromPolls))
	}
	if smFailures == 0 {
		t.Logf("note: sparsity-max stayed feasible on all %d polled instances", smAttempts)
	}
}

// TestAttributionFindsPaperCauses reproduces §4.2's attribution: shuffles
// (reduce pulls) should dominate bytes on hot links, and the "unexpected"
// contributors — extract network reads and evacuations — should appear.
func TestAttributionFindsPaperCauses(t *testing.T) {
	_, rep := smallRun(t)
	a := rep.Attribution
	if a.TotalBytes <= 0 {
		t.Skip("no congested bytes to attribute")
	}
	ranked := a.Ranked()
	if len(ranked) == 0 {
		t.Fatal("no kinds attributed")
	}
	if got := a.Share[netsim.KindShuffle] + a.Share[netsim.KindExtractRead]; got < 0.3 {
		t.Fatalf("shuffle+extract share %v — job traffic should drive congestion", got)
	}
	if _, ok := a.Share[netsim.KindExtractRead]; !ok {
		t.Fatal("extract reads never hit a hot link — the paper's unexpected cause is missing")
	}
}
