package core

import (
	"context"
	"io"
	"math"
	"testing"

	"dctraffic/internal/obs"
	"dctraffic/internal/tm"
	"dctraffic/internal/tomo"
	"dctraffic/internal/trace"
)

// bitsEqualSeries fails unless two figure series match bit for bit.
func bitsEqualSeries(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d]: %v vs %v", label, i, want[i], got[i])
		}
	}
}

// TestAnalyzeTomoColdVsWarm pins the warm-start digest policy: warm
// starts may only move the sparsity-max series. The analysis solves its
// tomography windows as one warm estimator chain; replaying the same
// windows cold, through the Problem methods, must analyze the same set
// of windows and reproduce every tomogravity-family series bit for bit.
func TestAnalyzeTomoColdVsWarm(t *testing.T) {
	rr, warm := smallRun(t)
	if warm.Fig12.NumTMs == 0 {
		t.Fatal("no tomography windows analyzed")
	}

	duration := rr.Config.Duration
	opts := AnalyzeOptions{}.ApplyDefaults(duration)
	view := trace.NewWindowView()
	src := rr.Source()
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := view.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	view.Seal(duration)
	p := tomo.NewProblem(rr.Top)
	windows := min(int((duration+opts.TomoBin-1)/opts.TomoBin), opts.TomoMaxTMs)
	var cold Fig12Data
	for i := 0; i < windows; i++ {
		from, to := tm.SeriesBinWindow(i, opts.TomoBin, duration)
		truth := tm.TorMatrix(view.Slice(from, to), rr.Top, from, to)
		if truth.Total() <= 0 {
			continue
		}
		b := p.LinkCounts(truth)
		xTrue := p.VecFromTM(truth)
		tg, err := p.Tomogravity(b)
		if err != nil {
			continue
		}
		mult := tomo.JobMultiplier(rr.Log, rr.Top, from, from+opts.TomoBin, opts.JobPriorAlpha)
		tj, err := p.TomogravityWithMultiplier(b, mult)
		if err != nil {
			continue
		}
		roleMult := tomo.RoleAwareMultiplier(rr.Log, rr.Top, from, from+opts.TomoBin, opts.JobPriorAlpha)
		tr, err := p.TomogravityWithMultiplier(b, roleMult)
		if err != nil {
			continue
		}
		if _, err := p.SparsityMax(b); err != nil {
			continue
		}
		cold.NumTMs++
		cold.Tomogravity = append(cold.Tomogravity, tomo.RMSRE(xTrue, tg, 0.75))
		cold.TomogravityJobs = append(cold.TomogravityJobs, tomo.RMSRE(xTrue, tj, 0.75))
		cold.TomogravityRoles = append(cold.TomogravityRoles, tomo.RMSRE(xTrue, tr, 0.75))
	}

	if warm.Fig12.NumTMs != cold.NumTMs {
		t.Fatalf("window counts differ: warm %d vs cold %d", warm.Fig12.NumTMs, cold.NumTMs)
	}
	bitsEqualSeries(t, "Fig12.Tomogravity", cold.Tomogravity, warm.Fig12.Tomogravity)
	bitsEqualSeries(t, "Fig12.TomogravityJobs", cold.TomogravityJobs, warm.Fig12.TomogravityJobs)
	bitsEqualSeries(t, "Fig12.TomogravityRoles", cold.TomogravityRoles, warm.Fig12.TomogravityRoles)
}

// TestAnalyzeTomoSolverSeries checks the solver-effort observability:
// a run reports per-window pivot and refactorization histograms
// covering every analyzed window plus warm/cold counters that partition
// them, and warm repair engages.
func TestAnalyzeTomoSolverSeries(t *testing.T) {
	rr, _ := smallRun(t)

	reg := obs.NewRegistry()
	rep, err := AnalyzeRun(context.Background(), rr, WithAnalysisObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	windows := float64(rep.Fig12.NumTMs)
	pivots, ok := snap.Get("tomo.pivots_per_window")
	if !ok || float64(pivots.Count) != windows {
		t.Fatalf("pivot histogram covers %d windows, want %v", pivots.Count, windows)
	}
	refacs, ok := snap.Get("tomo.refactorizations_per_window")
	if !ok || float64(refacs.Count) != windows {
		t.Fatalf("refactorization histogram covers %d windows, want %v", refacs.Count, windows)
	}
	nWarm := snap.Value("tomo.windows_warm")
	nCold := snap.Value("tomo.windows_cold")
	if nWarm+nCold != windows {
		t.Fatalf("warm %v + cold %v != windows %v", nWarm, nCold, windows)
	}
	if nWarm == 0 {
		t.Fatal("warm repair never engaged on the default pipeline")
	}
}
