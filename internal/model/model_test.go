package model

import (
	"math"
	"testing"
	"time"

	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/topology"
)

// paperTop mirrors the paper-scale shape at reduced size for fast tests.
func paperTop() *topology.Topology {
	cfg := topology.Config{
		Racks: 20, ServersPerRack: 20, AggSwitches: 2, RacksPerVLAN: 5,
		ExternalHosts: 10, ServerLinkBps: 1e9, TorUplinkBps: 5e9,
		AggUplinkBps: 40e9, ExtLinkBps: 1e9,
	}
	return topology.MustNew(cfg)
}

func TestGenerateTMSparsity(t *testing.T) {
	top := paperTop()
	p := PaperDefaultsFor(ClusterShape{Racks: 20, ServersPerRack: 20, ExternalHosts: 10})
	rng := stats.NewRNG(1)
	// Average the statistics over several windows.
	var zeroWithin, zeroAcross float64
	const trials = 10
	for i := 0; i < trials; i++ {
		m := p.GenerateTM(rng)
		es := tm.ComputeEntryStats(m, top)
		zeroWithin += es.PZeroWithinRack
		zeroAcross += es.PZeroAcrossRack
	}
	zeroWithin /= trials
	zeroAcross /= trials
	// Paper: ≈89% within, ≈99.5% across. Allow generous tolerance.
	if zeroWithin < 0.80 || zeroWithin > 0.95 {
		t.Fatalf("P(zero|within rack) = %v, want ~0.89", zeroWithin)
	}
	if zeroAcross < 0.97 {
		t.Fatalf("P(zero|across racks) = %v, want ~0.995", zeroAcross)
	}
	if zeroAcross <= zeroWithin {
		t.Fatal("cross-rack pairs must be more often silent than in-rack pairs")
	}
}

func TestGenerateTMCorrespondents(t *testing.T) {
	top := paperTop()
	p := PaperDefaultsFor(ClusterShape{Racks: 20, ServersPerRack: 20, ExternalHosts: 10})
	rng := stats.NewRNG(2)
	var medWithin, medAcross float64
	const trials = 8
	for i := 0; i < trials; i++ {
		m := p.GenerateTM(rng)
		cs := tm.ComputeCorrespondents(m, top)
		medWithin += cs.MedianWithinCount
		medAcross += cs.MedianAcrossCount
	}
	medWithin /= trials
	medAcross /= trials
	// Paper medians: 2 within, 4 outside (generous band).
	if medWithin < 1 || medWithin > 5 {
		t.Fatalf("median within-rack correspondents = %v, want ~2", medWithin)
	}
	if medAcross < 2 || medAcross > 10 {
		t.Fatalf("median cross-rack correspondents = %v, want ~4", medAcross)
	}
}

func TestGenerateTMEntryMagnitudes(t *testing.T) {
	top := paperTop()
	p := PaperDefaultsFor(ClusterShape{Racks: 20, ServersPerRack: 20, ExternalHosts: 10})
	m := p.GenerateTM(stats.NewRNG(3))
	es := tm.ComputeEntryStats(m, top)
	if len(es.WithinRack) == 0 || len(es.AcrossRack) == 0 {
		t.Fatal("no entries generated")
	}
	// Within-rack entries are bigger on median (paper: "server pairs
	// within the same rack more likely to exchange more bytes").
	if stats.Median(es.WithinRack) <= stats.Median(es.AcrossRack) {
		t.Fatalf("within median %v <= across median %v",
			stats.Median(es.WithinRack), stats.Median(es.AcrossRack))
	}
	// Entries should span a wide loge range like [e^4, e^20].
	all := append(append([]float64{}, es.WithinRack...), es.AcrossRack...)
	lo, hi := math.Log(stats.Min(all)), math.Log(stats.Max(all))
	if hi-lo < 8 {
		t.Fatalf("entry range too narrow: loge in [%v, %v]", lo, hi)
	}
}

func TestGenerateTMHasScatterAndExternal(t *testing.T) {
	top := paperTop()
	p := PaperDefaultsFor(ClusterShape{Racks: 20, ServersPerRack: 20, ExternalHosts: 10})
	m := p.GenerateTM(stats.NewRNG(4))
	ps := tm.SummarizePatterns(m, top)
	if ps.ScatterGatherRows == 0 {
		t.Fatal("no scatter-gather structure generated")
	}
	if ps.ExternalFraction <= 0 {
		t.Fatal("no external traffic generated")
	}
	if ps.WithinRackFraction <= 0.05 {
		t.Fatalf("within-rack share %v too small — diagonal missing", ps.WithinRackFraction)
	}
}

func TestGenerateFlowsConserveBytes(t *testing.T) {
	p := PaperDefaultsFor(ClusterShape{Racks: 4, ServersPerRack: 5, ExternalHosts: 2})
	rng := stats.NewRNG(5)
	m := p.GenerateTM(rng)
	recs := p.GenerateFlows(rng, m, DefaultFlowShape(), 0, 1)
	var got float64
	for _, r := range recs {
		got += float64(r.Bytes)
		if r.Start < 0 || r.End > p.Window {
			t.Fatalf("flow outside window: %+v", r)
		}
		if r.End <= r.Start {
			t.Fatalf("non-positive duration: %+v", r)
		}
	}
	want := m.Total()
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("flow bytes %v, TM total %v", got, want)
	}
}

func TestGenerateFlowsIDsAndPorts(t *testing.T) {
	p := PaperDefaultsFor(ClusterShape{Racks: 4, ServersPerRack: 5, ExternalHosts: 2})
	rng := stats.NewRNG(6)
	m := p.GenerateTM(rng)
	recs := p.GenerateFlows(rng, m, DefaultFlowShape(), 30*time.Second, 100)
	seen := map[int64]bool{}
	for _, r := range recs {
		if seen[int64(r.ID)] {
			t.Fatal("duplicate flow ID")
		}
		seen[int64(r.ID)] = true
		if int64(r.ID) < 100 {
			t.Fatal("IDs should start at firstID")
		}
		if r.Start < 30*time.Second {
			t.Fatal("window offset ignored")
		}
	}
}

func TestFitRoundTrip(t *testing.T) {
	top := paperTop()
	p := PaperDefaultsFor(ClusterShape{Racks: 20, ServersPerRack: 20, ExternalHosts: 10})
	rng := stats.NewRNG(7)
	m := p.GenerateTM(rng)
	fit := Fit(m, top, p.Window)
	// The fitted sparsity parameters should be in the neighborhood of the
	// generator's (they interact with scatter events, so bands are wide).
	if fit.PSilentAcrossRack < 0.1 || fit.PSilentAcrossRack > 0.8 {
		t.Fatalf("fitted PSilentAcrossRack = %v", fit.PSilentAcrossRack)
	}
	if fit.WithinBytes.Mu < p.WithinBytes.Mu-2 || fit.WithinBytes.Mu > p.WithinBytes.Mu+2 {
		t.Fatalf("fitted WithinBytes.Mu = %v, generator %v", fit.WithinBytes.Mu, p.WithinBytes.Mu)
	}
	if fit.QuietWithinFrac <= 0 || fit.QuietWithinFrac > 0.5 {
		t.Fatalf("fitted QuietWithinFrac = %v", fit.QuietWithinFrac)
	}
	// A TM generated from the fitted params should preserve the headline
	// sparsity ordering.
	m2 := fit.GenerateTM(stats.NewRNG(8))
	es := tm.ComputeEntryStats(m2, top)
	if es.PZeroAcrossRack <= es.PZeroWithinRack {
		t.Fatal("refitted model lost the sparsity ordering")
	}
}

func TestFitDegenerateMatrix(t *testing.T) {
	top := paperTop()
	empty := tm.NewMatrix(top.NumHosts())
	fit := Fit(empty, top, 10*time.Second)
	// Fallbacks must kick in; generating from the fit must not panic.
	m := fit.GenerateTM(stats.NewRNG(9))
	_ = m.Total()
}

func TestDeterministicGeneration(t *testing.T) {
	p := PaperDefaultsFor(ClusterShape{Racks: 8, ServersPerRack: 10, ExternalHosts: 4})
	a := p.GenerateTM(stats.NewRNG(10))
	b := p.GenerateTM(stats.NewRNG(10))
	// Entry-wise identity.
	if a.NonZero() != b.NonZero() {
		t.Fatal("generation is not deterministic for equal seeds")
	}
	a.ForEach(func(src, dst int, bytes float64) {
		if b.At(src, dst) != bytes {
			t.Fatalf("generation is not deterministic for equal seeds: entry (%d,%d)", src, dst)
		}
	})
}

func TestExpectedTotalCalibration(t *testing.T) {
	top := paperTop()
	p := PaperDefaultsFor(ClusterShape{Racks: 20, ServersPerRack: 20, ExternalHosts: 10})
	rng := stats.NewRNG(20)
	m := p.GenerateTM(rng)
	fit := Fit(m, top, p.Window)
	// After calibration the fitted model's expected volume matches the
	// measured TM's total.
	exp := fit.ExpectedTotal()
	if math.Abs(exp-m.Total())/m.Total() > 0.01 {
		t.Fatalf("calibrated expected total %v vs measured %v", exp, m.Total())
	}
	// And generated windows land in the right ballpark (lognormal tails
	// make single windows noisy; average a few).
	var gen float64
	const trials = 8
	g := stats.NewRNG(21)
	for i := 0; i < trials; i++ {
		gen += fit.GenerateTM(g).Total()
	}
	gen /= trials
	if gen < m.Total()/4 || gen > m.Total()*4 {
		t.Fatalf("generated mean total %v far from measured %v", gen, m.Total())
	}
}

func TestSeriesGenCorrelation(t *testing.T) {
	p := PaperDefaultsFor(ClusterShape{Racks: 8, ServersPerRack: 10, ExternalHosts: 4})
	// Correlated series: consecutive windows share active servers and
	// hubs, so the normalized change is lower than independent redraws.
	const windows = 30
	gen := p.NewSeriesGen(stats.NewRNG(40))
	var corr []*tm.Matrix
	for i := 0; i < windows; i++ {
		corr = append(corr, gen.Next())
	}
	indep := make([]*tm.Matrix, windows)
	r := stats.NewRNG(41)
	for i := range indep {
		indep[i] = p.GenerateTM(r)
	}
	med := func(series []*tm.Matrix) float64 {
		ring := tm.NewChangeRing(1)
		for _, m := range series {
			ring.Push(m)
		}
		return stats.Median(ring.Changes(0))
	}
	mc, mi := med(corr), med(indep)
	if mc <= 0 {
		t.Fatal("correlated series should still change window to window (Fig 10)")
	}
	if mc >= mi {
		t.Fatalf("correlated change %v should be below independent %v", mc, mi)
	}
}

func TestSeriesGenDeterministicAndAlive(t *testing.T) {
	p := PaperDefaultsFor(ClusterShape{Racks: 8, ServersPerRack: 10, ExternalHosts: 4})
	run := func(seed uint64) []float64 {
		gen := p.NewSeriesGen(stats.NewRNG(seed))
		var totals []float64
		for i := 0; i < 10; i++ {
			m := gen.Next()
			if m.NonZero() == 0 {
				t.Fatal("series died out")
			}
			totals = append(totals, float64(m.NonZero()))
		}
		return totals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("series not deterministic at window %d: %v vs %v", i, a[i], b[i])
		}
	}
}
