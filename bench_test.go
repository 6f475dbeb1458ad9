package dctraffic

// One benchmark per table/figure of the paper (see DESIGN.md §3). Each
// bench times the analysis code behind its figure on a shared simulated
// run and reports the figure's headline value as a custom metric, so
// `go test -bench .` doubles as the experiment harness. The record-level
// benches (Figures 7, 9, 10, 11 and §4.4) feed the canonical-order
// records through the code AnalyzeSource runs and fail if the value
// they compute differs from the report's. Ablation benches at the
// bottom rerun scaled-down simulations with one design decision removed.

import (
	"context"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"dctraffic/internal/congestion"
	"dctraffic/internal/core"
	"dctraffic/internal/flows"
	"dctraffic/internal/sched"
	"dctraffic/internal/stats"
	"dctraffic/internal/te"
	"dctraffic/internal/tm"
	"dctraffic/internal/tomo"
	"dctraffic/internal/trace"
)

var (
	benchOnce sync.Once
	benchRun  *core.RunResult
	benchRep  *core.Report
)

// benchSetup simulates once and memoizes run + full report.
func benchSetup(b *testing.B) (*core.RunResult, *core.Report) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := core.SmallRun()
		cfg.Duration = time.Hour
		cfg.DrainTime = 20 * time.Minute
		rr, err := core.Simulate(cfg)
		if err != nil {
			panic(err)
		}
		benchRun = rr
		rep, err := core.AnalyzeRun(context.Background(), rr)
		if err != nil {
			panic(err)
		}
		benchRep = rep
	})
	b.ResetTimer()
	return benchRun, benchRep
}

// canonicalRecords drains the run's records in the canonical (Start, ID)
// order AnalyzeSource sweeps them in.
func canonicalRecords(b *testing.B, rr *core.RunResult) []trace.FlowRecord {
	b.Helper()
	var out []trace.FlowRecord
	src := rr.Source()
	for {
		r, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, r)
	}
}

// sameMetric reports got under unit, failing b unless it equals the
// report's value bit for bit.
func sameMetric(b *testing.B, got, report float64, unit string) {
	b.Helper()
	if math.Float64bits(got) != math.Float64bits(report) {
		b.Fatalf("%s = %v, report has %v", unit, got, report)
	}
	b.ReportMetric(got, unit)
}

func BenchmarkSec2Overhead(b *testing.B) {
	rr, _ := benchSetup(b)
	var o = rr.Collector.Overhead(rr.Config.Duration)
	for i := 0; i < b.N; i++ {
		o = rr.Collector.Overhead(rr.Config.Duration)
	}
	b.ReportMetric(o.MedianCPUPct, "cpu-pct")
	b.ReportMetric(o.CompressionRatio, "compression-x")
}

func BenchmarkFig2TrafficMatrixHeatmap(b *testing.B) {
	rr, rep := benchSetup(b)
	var ps tm.PatternSummary
	for i := 0; i < b.N; i++ {
		mid := rr.Config.Duration / 2
		m := tm.ServerMatrix(rr.Records(), rr.Top.NumHosts(), mid, mid+10*time.Second)
		ps = tm.SummarizePatterns(m, rr.Top)
	}
	_ = ps
	b.ReportMetric(rep.Fig2.Patterns.WithinRackFraction, "rack-share")
	b.ReportMetric(float64(rep.Fig2.Patterns.ScatterGatherRows), "scatter-rows")
}

func BenchmarkFig3EntryDistribution(b *testing.B) {
	rr, rep := benchSetup(b)
	mid := rr.Config.Duration / 2
	m := tm.ServerMatrix(rr.Records(), rr.Top.NumHosts(), mid, mid+100*time.Second)
	var es tm.EntryStats
	for i := 0; i < b.N; i++ {
		es = tm.ComputeEntryStats(m, rr.Top)
	}
	_ = es
	b.ReportMetric(rep.Fig3.Entries.PZeroWithinRack, "p-zero-rack")
	b.ReportMetric(rep.Fig3.Entries.PZeroAcrossRack, "p-zero-cross")
}

func BenchmarkFig4Correspondents(b *testing.B) {
	rr, rep := benchSetup(b)
	mid := rr.Config.Duration / 2
	m := tm.ServerMatrix(rr.Records(), rr.Top.NumHosts(), mid, mid+100*time.Second)
	var cs tm.CorrespondentStats
	for i := 0; i < b.N; i++ {
		cs = tm.ComputeCorrespondents(m, rr.Top)
	}
	_ = cs
	b.ReportMetric(rep.Fig4.Stats.MedianWithinCount, "median-within")
	b.ReportMetric(rep.Fig4.Stats.MedianAcrossCount, "median-across")
}

func BenchmarkFig5CongestionMap(b *testing.B) {
	rr, rep := benchSetup(b)
	links := rr.Top.InterSwitchLinks()
	var eps []congestion.Episode
	for i := 0; i < b.N; i++ {
		eps = congestion.Detect(rr.Net.Stats(), rr.Top, 0, links)
	}
	_ = eps
	b.ReportMetric(rep.Fig5.FracLinks10s, "frac-links-10s")
	b.ReportMetric(rep.Fig5.FracLinks100s, "frac-links-100s")
}

func BenchmarkFig6CongestionDurations(b *testing.B) {
	rr, rep := benchSetup(b)
	eps := congestion.Detect(rr.Net.Stats(), rr.Top, 0, rr.Top.InterSwitchLinks())
	for i := 0; i < b.N; i++ {
		_, _, _ = congestion.DurationStats(eps)
	}
	b.ReportMetric(rep.Fig6.FracUnder10, "frac-under-10s")
	b.ReportMetric(rep.Fig6.LongestSec, "longest-s")
}

// closedTracker scans the run's finished link bins, as the sweep does
// for a completed run.
func closedTracker(rr *core.RunResult) *congestion.EpisodeTracker {
	tr := congestion.NewEpisodeTracker(rr.Net.Stats(), rr.Top, 0, rr.Top.InterSwitchLinks())
	tr.Close()
	return tr
}

func BenchmarkFig7CongestedFlowRates(b *testing.B) {
	rr, rep := benchSetup(b)
	recs := canonicalRecords(b, rr)
	idx := closedTracker(rr).Index()
	b.ResetTimer()
	var j *congestion.RecordJoin
	for i := 0; i < b.N; i++ {
		j = congestion.NewRecordJoin(idx, rr.Top, 0)
		for k := range recs {
			j.Join(&recs[k])
		}
	}
	sameMetric(b, j.Overlap.Quantile(0.5), rep.Fig7.MedianOverlapMbps, "median-overlap-mbps")
	sameMetric(b, j.All.Quantile(0.5), rep.Fig7.MedianAllMbps, "median-all-mbps")
}

func BenchmarkFig8ReadFailureImpact(b *testing.B) {
	rr, rep := benchSetup(b)
	recs := canonicalRecords(b, rr)
	j := congestion.NewRecordJoin(closedTracker(rr).Index(), rr.Top, 0)
	for k := range recs {
		j.Join(&recs[k])
	}
	period := rep.Fig8.Period
	periods := max(int(rr.Config.Duration/period), 1)
	b.ResetTimer()
	var days []congestion.DayImpact
	for i := 0; i < b.N; i++ {
		days = j.ReadFailureImpact(rr.Log, period, periods)
	}
	var increases []float64
	for _, d := range days {
		if d.CongestedReads > 0 && d.ClearReads > 0 {
			increases = append(increases, d.IncreasePct)
		}
	}
	sameMetric(b, stats.Median(increases), rep.Fig8.MedianIncreasePct, "median-increase-pct")
}

func BenchmarkFig9FlowDurations(b *testing.B) {
	rr, rep := benchSetup(b)
	recs := canonicalRecords(b, rr)
	b.ResetTimer()
	var st *flows.SummaryTracker
	for i := 0; i < b.N; i++ {
		st = flows.NewSummaryTracker(rr.Config.Duration, 0)
		for j := range recs {
			st.Observe(&recs[j])
		}
	}
	s := st.Summary()
	sameMetric(b, s.FracShorterThan10s, rep.Fig9.Summary.FracShorterThan10s, "frac-under-10s")
	sameMetric(b, s.BytesInFlowsUnder25s, rep.Fig9.Summary.BytesInFlowsUnder25s, "bytes-under-25s")
}

func BenchmarkFig10TrafficChange(b *testing.B) {
	rr, rep := benchSetup(b)
	bin, duration := rep.Fig10.Bin, rr.Config.Duration
	wv := trace.NewWindowView()
	for _, r := range canonicalRecords(b, rr) {
		if err := wv.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	wv.Seal(duration)
	b.ResetTimer()
	var ring *tm.ChangeRing
	for i := 0; i < b.N; i++ {
		ring = tm.NewChangeRing(1, 10)
		for j := 0; j < int((duration+bin-1)/bin); j++ {
			from, to := tm.SeriesBinWindow(j, bin, duration)
			ring.Push(tm.ServerMatrix(wv.Slice(from, to), rr.Top.NumHosts(), from, to))
		}
	}
	medianNonZero := func(xs []float64) float64 {
		var nz []float64
		for _, x := range xs {
			if x != 0 {
				nz = append(nz, x)
			}
		}
		return stats.Median(nz)
	}
	sameMetric(b, medianNonZero(ring.Changes(0)), rep.Fig10.MedianChange10s, "median-change-10s")
	sameMetric(b, medianNonZero(ring.Changes(1)), rep.Fig10.MedianChange100s, "median-change-100s")
}

func BenchmarkFig11InterArrivals(b *testing.B) {
	rr, rep := benchSetup(b)
	recs := canonicalRecords(b, rr)
	duration := rr.Config.Duration
	b.ResetTimer()
	var it *flows.InterArrivalTracker
	for i := 0; i < b.N; i++ {
		it = flows.NewInterArrivalTracker(rr.Top, 0)
		for j := range recs {
			it.Observe(&recs[j])
		}
	}
	arrivals := 0
	for _, r := range recs {
		if r.Start < duration {
			arrivals++
		}
	}
	sameMetric(b, it.ModeMs(), rep.Fig11.ModeMs, "mode-ms")
	sameMetric(b, float64(arrivals)/duration.Seconds(), rep.Fig11.ArrivalPerSec, "arrivals-per-s")
}

func BenchmarkFig12TomographyError(b *testing.B) {
	rr, rep := benchSetup(b)
	problem := tomo.NewProblem(rr.Top)
	series := tm.TorSeries(rr.Records(), rr.Top, 10*time.Minute, rr.Config.Duration)
	var truth *tm.Matrix
	for _, m := range series {
		if m.Total() > 0 {
			truth = m
			break
		}
	}
	if truth == nil {
		b.Skip("no traffic")
	}
	cnt := problem.LinkCounts(truth)
	for i := 0; i < b.N; i++ {
		if _, err := problem.Tomogravity(cnt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Fig12.MedianTomogravity, "median-rmsre-tg")
	b.ReportMetric(rep.Fig12.MedianSparsityMax, "median-rmsre-sm")
}

func BenchmarkFig13ErrorVsSparsity(b *testing.B) {
	_, rep := benchSetup(b)
	xs := make([]float64, 0, len(rep.Fig13.Points))
	ys := make([]float64, 0, len(rep.Fig13.Points))
	for _, p := range rep.Fig13.Points {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	if len(xs) < 2 {
		b.Skip("too few tomography instances")
	}
	for i := 0; i < b.N; i++ {
		_ = stats.Pearson(xs, ys)
		_, _ = stats.LogFit(xs, ys)
	}
	b.ReportMetric(rep.Fig13.Pearson, "pearson")
}

func BenchmarkFig14SparsityComparison(b *testing.B) {
	rr, rep := benchSetup(b)
	problem := tomo.NewProblem(rr.Top)
	series := tm.TorSeries(rr.Records(), rr.Top, 10*time.Minute, rr.Config.Duration)
	var truth *tm.Matrix
	for _, m := range series {
		if m.Total() > 0 {
			truth = m
			break
		}
	}
	if truth == nil {
		b.Skip("no traffic")
	}
	cnt := problem.LinkCounts(truth)
	for i := 0; i < b.N; i++ {
		if _, err := problem.SparsityMax(cnt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Fig14.SparsityNonZeros, "sm-nonzeros")
	b.ReportMetric(rep.Fig14.HeavyHitterHits, "heavy-hits")
}

func BenchmarkSec44IncastPreconditions(b *testing.B) {
	rr, rep := benchSetup(b)
	recs := canonicalRecords(b, rr)
	eps := congestion.Detect(rr.Net.Stats(), rr.Top, 0, rr.Top.InterSwitchLinks())
	b.ResetTimer()
	var audit congestion.IncastAudit
	for i := 0; i < b.N; i++ {
		tr := congestion.NewIncastTracker(rr.Top)
		for j := range recs {
			tr.Observe(&recs[j])
		}
		audit = tr.Audit(eps, rr.Net.Stats().BinSize(), rr.Config.Duration, rr.Cluster.Config().MaxConnsPerVertex)
	}
	sameMetric(b, audit.FracFlowsWithinRack, rep.Incast.FracFlowsWithinRack, "frac-rack")
	sameMetric(b, float64(audit.MaxSimultaneousConnections), float64(rep.Incast.MaxSimultaneousConnections), "conn-cap")
}

// --- ablations ---------------------------------------------------------

// ablationRun simulates a short window with a tweaked scheduler config.
func ablationRun(b *testing.B, mutate func(*sched.Config)) *core.RunResult {
	b.Helper()
	cfg := core.SmallRun()
	cfg.Duration = 30 * time.Minute
	cfg.DrainTime = 10 * time.Minute
	mutate(&cfg.Sched)
	rr, err := core.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rr
}

// BenchmarkAblationRandomPlacement removes locality-aware placement.
// Work-seeks-bandwidth shows up in two ways: reads served without leaving
// the rack/VLAN, and total bytes that ever hit the fabric — random
// placement multiplies network volume several-fold because extract inputs
// that were local disk reads become cross-rack transfers.
func BenchmarkAblationRandomPlacement(b *testing.B) {
	random := ablationRun(b, func(c *sched.Config) { c.RandomPlacement = true })
	normal := ablationRun(b, func(c *sched.Config) {})
	localFrac := func(rr *core.RunResult) float64 {
		l, rk, v, rm := rr.Cluster.ReadLocality()
		total := l + rk + v + rm
		if total == 0 {
			return 0
		}
		return float64(l+rk+v) / float64(total)
	}
	b.ResetTimer()
	var lr, ln float64
	for i := 0; i < b.N; i++ {
		lr = localFrac(random)
		ln = localFrac(normal)
	}
	b.ReportMetric(lr, "near-reads-random")
	b.ReportMetric(ln, "near-reads-normal")
	b.ReportMetric(random.Net.TotalBytes()/1e9, "fabric-GB-random")
	b.ReportMetric(normal.Net.TotalBytes()/1e9, "fabric-GB-normal")
}

// BenchmarkAblationNoConnectionCap removes the per-vertex connection cap
// and pacing — the §4.4 incast-avoidance decisions — and reports the peak
// fan-in a vertex opens.
func BenchmarkAblationNoConnectionCap(b *testing.B) {
	uncapped := ablationRun(b, func(c *sched.Config) {
		c.MaxConnsPerVertex = 64
		c.FlowPacing = time.Millisecond
	})
	capped := ablationRun(b, func(c *sched.Config) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = uncapped.Cluster.MaxConcurrentPulls()
	}
	b.ReportMetric(float64(uncapped.Cluster.MaxConcurrentPulls()), "max-fanin-uncapped")
	b.ReportMetric(float64(capped.Cluster.MaxConcurrentPulls()), "max-fanin-capped")
}

// BenchmarkAblationUniformPrior replaces the gravity prior with a uniform
// one, quantifying how much the gravity structure actually contributes.
func BenchmarkAblationUniformPrior(b *testing.B) {
	rr, _ := benchSetup(b)
	problem := tomo.NewProblem(rr.Top)
	series := tm.TorSeries(rr.Records(), rr.Top, 10*time.Minute, rr.Config.Duration)
	var eGravity, eUniform []float64
	for _, truth := range series {
		if truth.Total() <= 0 {
			continue
		}
		cnt := problem.LinkCounts(truth)
		xTrue := problem.VecFromTM(truth)
		if est, err := problem.Tomogravity(cnt); err == nil {
			eGravity = append(eGravity, tomo.RMSRE(xTrue, est, 0.75))
		}
		// Uniform prior = multiplier that flattens gravity.
		g := problem.GravityPrior(cnt)
		mult := make([]float64, len(g))
		for i := range mult {
			if g[i] > 0 {
				mult[i] = 1 / g[i]
			} else {
				mult[i] = 1
			}
		}
		if est, err := problem.TomogravityWithMultiplier(cnt, mult); err == nil {
			eUniform = append(eUniform, tomo.RMSRE(xTrue, est, 0.75))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.Median(eGravity)
	}
	b.ReportMetric(stats.Median(eGravity), "rmsre-gravity")
	b.ReportMetric(stats.Median(eUniform), "rmsre-uniform")
}

// BenchmarkSec43TrafficEngineering replays the run's cross-rack flows
// over a multipath fabric under the §4.3 path selectors and reports their
// peak utilization — quantifying "simple random choices" vs centralized
// per-flow scheduling with decision lag.
func BenchmarkSec43TrafficEngineering(b *testing.B) {
	rr, _ := benchSetup(b)
	fabric, err := te.NewFabric(rr.Top.NumRacks(), 4, 10e9)
	if err != nil {
		b.Fatal(err)
	}
	teFlows := te.FlowsFromRecords(rr.Records(), rr.Top)
	if len(teFlows) == 0 {
		b.Skip("no cross-rack flows")
	}
	var results []te.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = te.Compare(fabric, teFlows, 1, time.Second, rr.Config.Duration, 100*time.Millisecond)
	}
	for _, r := range results {
		switch r.Selector {
		case "random":
			b.ReportMetric(r.MaxUtilization, "maxutil-random")
		case "least-loaded":
			b.ReportMetric(r.MaxUtilization, "maxutil-central")
		case "least-loaded+100ms":
			b.ReportMetric(r.MaxUtilization, "maxutil-stale")
		}
	}
	b.ReportMetric(results[0].DecisionsPerSec, "decisions-per-s")
}

// BenchmarkAblationSparseVsDenseTM measures the sparse TM representation
// against a dense scan for the entry-stats analysis.
func BenchmarkAblationSparseVsDenseTM(b *testing.B) {
	rr, _ := benchSetup(b)
	mid := rr.Config.Duration / 2
	m := tm.ServerMatrix(rr.Records(), rr.Top.NumHosts(), mid, mid+100*time.Second)
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tm.ComputeEntryStats(m, rr.Top)
		}
	})
	b.Run("dense", func(b *testing.B) {
		n := m.N()
		dense := make([]float64, n*n)
		m.ForEach(func(src, dst int, bytes float64) { dense[src*n+dst] = bytes })
		for i := 0; i < b.N; i++ {
			back := tm.NewMatrix(n)
			for k, v := range dense {
				back.Add(k/n, k%n, v)
			}
			_ = tm.ComputeEntryStats(back, rr.Top)
		}
	})
}

// BenchmarkAblationCounterNoise measures tomogravity's sensitivity to
// imperfect SNMP counters (the paper evaluates with exact counts; real
// deployments poll and lose samples).
func BenchmarkAblationCounterNoise(b *testing.B) {
	rr, _ := benchSetup(b)
	problem := tomo.NewProblem(rr.Top)
	series := tm.TorSeries(rr.Records(), rr.Top, 10*time.Minute, rr.Config.Duration)
	var truth *tm.Matrix
	for _, m := range series {
		if m.Total() > 0 {
			truth = m
			break
		}
	}
	if truth == nil {
		b.Skip("no traffic")
	}
	cnt := problem.LinkCounts(truth)
	xTrue := problem.VecFromTM(truth)
	rng := stats.NewRNG(1)
	errAt := func(relStd float64) float64 {
		var sum float64
		const trials = 5
		for i := 0; i < trials; i++ {
			est, err := problem.Tomogravity(tomo.NoisyLinkCounts(cnt, rng, relStd))
			if err != nil {
				b.Fatal(err)
			}
			sum += tomo.RMSRE(xTrue, est, 0.75)
		}
		return sum / trials
	}
	var clean, noisy float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clean = errAt(0)
		noisy = errAt(0.2)
	}
	b.ReportMetric(clean, "rmsre-exact")
	b.ReportMetric(noisy, "rmsre-20pct-noise")
}

// BenchmarkAblationMultipathFabric runs the same workload on the paper's
// single-homed tree and on a VL2-style multipath fabric (same total ToR
// uplink budget, per-flow ECMP across 4 aggs) and reports sustained
// (>=10 s) congestion seconds per monitored link for each — the
// architecture comparison the paper's measurements are meant to enable.
// ECMP scatters many short collisions over smaller per-agg links but
// eliminates most long hot-trunk episodes.
func BenchmarkAblationMultipathFabric(b *testing.B) {
	run := func(multipath bool) float64 {
		cfg := core.SmallRun()
		cfg.Duration = 30 * time.Minute
		cfg.DrainTime = 10 * time.Minute
		cfg.Topology.MultiPath = multipath
		if multipath {
			cfg.Topology.AggSwitches = 4
		}
		rr, err := core.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		links := rr.Top.InterSwitchLinks()
		eps := congestion.Detect(rr.Net.Stats(), rr.Top, 0, links)
		var longSec float64
		for _, e := range eps {
			if d := e.Duration().Seconds(); d >= 10 {
				longSec += d
			}
		}
		return longSec / float64(len(links))
	}
	var tree, multi float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree = run(false)
		multi = run(true)
	}
	b.ReportMetric(tree, "long-cong-s-per-link-tree")
	b.ReportMetric(multi, "long-cong-s-per-link-ecmp")
}
