package tomo

import (
	"math"
	"testing"
	"time"

	"dctraffic/internal/eventlog"
	"dctraffic/internal/linalg"
	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/topology"
)

func smallProblem(t *testing.T) (*Problem, *topology.Topology) {
	t.Helper()
	top := topology.MustNew(topology.SmallConfig())
	return NewProblem(top), top
}

func TestProblemDimensions(t *testing.T) {
	p, top := smallProblem(t)
	r := top.NumRacks()
	if p.NumPairs() != r*(r-1) {
		t.Fatalf("pairs = %d, want %d", p.NumPairs(), r*(r-1))
	}
	// 2 per rack + 2 per agg = the "about 2n" of the paper.
	want := 2*r + 2*top.Config().AggSwitches
	if p.NumConstraints() != want {
		t.Fatalf("constraints = %d, want %d", p.NumConstraints(), want)
	}
}

func TestVecTMRoundTrip(t *testing.T) {
	p, top := smallProblem(t)
	m := tm.NewMatrix(top.NumRacks())
	m.Add(0, 3, 100)
	m.Add(5, 1, 42)
	x := p.VecFromTM(m)
	back := p.TMFromVec(x)
	if back.At(0, 3) != 100 || back.At(5, 1) != 42 || back.Total() != 142 {
		t.Fatal("round trip broken")
	}
}

// randomTorTM builds a sparse, job-clustered ToR TM like the ground truth.
func randomTorTM(top *topology.Topology, seed uint64) *tm.Matrix {
	r := stats.NewRNG(seed)
	m := tm.NewMatrix(top.NumRacks())
	// A few "jobs" each spanning 2-3 racks exchanging heavy traffic.
	for job := 0; job < 4; job++ {
		base := r.IntN(top.NumRacks())
		span := 2 + r.IntN(2)
		for a := 0; a < span; a++ {
			for b := 0; b < span; b++ {
				if a == b {
					continue
				}
				i := (base + a) % top.NumRacks()
				j := (base + b) % top.NumRacks()
				m.Add(i, j, 1e9*(0.5+r.Float64()))
			}
		}
	}
	return m
}

func TestLinkCountsConsistency(t *testing.T) {
	p, top := smallProblem(t)
	truth := randomTorTM(top, 1)
	b := p.LinkCounts(truth)
	// Each ToR uplink must equal the row sum of that rack.
	rows := make([]float64, truth.N())
	truth.ForEach(func(src, _ int, bytes float64) { rows[src] += bytes })
	for rk := 0; rk < top.NumRacks(); rk++ {
		row := p.rowOfLink[top.TorUplink(topology.RackID(rk))]
		if math.Abs(b[row]-rows[rk]) > 1e-6 {
			t.Fatalf("ToR %d uplink count %v != row sum %v", rk, b[row], rows[rk])
		}
	}
}

func TestGravityPriorMatchesMarginals(t *testing.T) {
	p, top := smallProblem(t)
	truth := randomTorTM(top, 2)
	b := p.LinkCounts(truth)
	g := p.GravityPrior(b)
	// Gravity preserves totals.
	var gTotal float64
	for _, v := range g {
		gTotal += v
	}
	if math.Abs(gTotal-truth.Total())/truth.Total() > 0.05 {
		t.Fatalf("gravity total %v, truth %v", gTotal, truth.Total())
	}
	// And is much denser than the truth (the paper's observation).
	if NonZeroCount(g) <= truth.NonZero() {
		t.Fatalf("gravity should spread traffic: %d nonzero vs truth %d", NonZeroCount(g), truth.NonZero())
	}
}

func TestTomogravitySatisfiesLinkCounts(t *testing.T) {
	p, top := smallProblem(t)
	truth := randomTorTM(top, 3)
	b := p.LinkCounts(truth)
	x, err := p.Tomogravity(b)
	if err != nil {
		t.Fatal(err)
	}
	got := p.a.MulVec(x)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-3*(1+b[i]) {
			t.Fatalf("constraint %d: %v vs %v", i, got[i], b[i])
		}
	}
	// Tomogravity should have bounded error but not be perfect on sparse
	// clustered truth.
	err75 := RMSRE(p.VecFromTM(truth), x, 0.75)
	if err75 <= 0 || err75 > 5 {
		t.Fatalf("tomogravity RMSRE = %v, expected imperfect but bounded", err75)
	}
}

func TestSparsityMaxIsSparse(t *testing.T) {
	p, top := smallProblem(t)
	truth := randomTorTM(top, 4)
	b := p.LinkCounts(truth)
	x, err := p.SparsityMax(b)
	if err != nil {
		t.Fatal(err)
	}
	if nz := NonZeroCount(x); nz > p.NumConstraints() {
		t.Fatalf("sparsity-max has %d non-zeros, more than %d constraints", nz, p.NumConstraints())
	}
	got := p.a.MulVec(x)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-3*(1+b[i]) {
			t.Fatalf("constraint %d: %v vs %v", i, got[i], b[i])
		}
	}
}

func TestSparsityComparisonOrdering(t *testing.T) {
	// The paper's Figure 14 finding: sparsity-max is sparser than truth,
	// truth is sparser than tomogravity.
	p, top := smallProblem(t)
	truth := randomTorTM(top, 5)
	b := p.LinkCounts(truth)
	xTrue := p.VecFromTM(truth)
	tg, err := p.Tomogravity(b)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := p.SparsityMax(b)
	if err != nil {
		t.Fatal(err)
	}
	_, fTrue := SparsityOfVec(xTrue, 0.75)
	_, fTG := SparsityOfVec(tg, 0.75)
	_, fSM := SparsityOfVec(sm, 0.75)
	if !(fSM <= fTrue && fTrue <= fTG) {
		t.Fatalf("sparsity ordering violated: SM=%v true=%v TG=%v", fSM, fTrue, fTG)
	}
}

func TestTomogravityWithMultiplierImprovesCluster(t *testing.T) {
	p, top := smallProblem(t)
	truth := randomTorTM(top, 6)
	b := p.LinkCounts(truth)
	// Oracle multiplier: boost exactly the pairs that carry traffic.
	xTrue := p.VecFromTM(truth)
	mult := make([]float64, len(xTrue))
	for i, v := range xTrue {
		if v > 0 {
			mult[i] = 10
		} else {
			mult[i] = 1
		}
	}
	plain, err := p.Tomogravity(b)
	if err != nil {
		t.Fatal(err)
	}
	boosted, err := p.TomogravityWithMultiplier(b, mult)
	if err != nil {
		t.Fatal(err)
	}
	if RMSRE(xTrue, boosted, 0.75) >= RMSRE(xTrue, plain, 0.75) {
		t.Fatal("an oracle job prior should not hurt")
	}
}

func TestRMSRE(t *testing.T) {
	xTrue := []float64{100, 50, 1, 0}
	perfect := []float64{100, 50, 1, 0}
	if RMSRE(xTrue, perfect, 0.75) != 0 {
		t.Fatal("perfect estimate should have zero error")
	}
	// Threshold for 75% of 151 = 113.25: entries {100, 50} cumulative
	// 100, 150 >= 113.25 at the second entry, so T = 50.
	est := []float64{100, 100, 9999, 0} // error only on the 50 entry
	got := RMSRE(xTrue, est, 0.75)
	if math.Abs(got-math.Sqrt(0.5)) > 1e-9 {
		t.Fatalf("RMSRE = %v, want sqrt(1/2)", got)
	}
	if RMSRE([]float64{0, 0}, []float64{1, 1}, 0.75) != 0 {
		t.Fatal("empty truth should yield 0")
	}
}

func TestSparsityOfVec(t *testing.T) {
	x := []float64{75, 10, 10, 5, 0, 0, 0, 0}
	count, frac := SparsityOfVec(x, 0.75)
	if count != 1 || frac != 0.125 {
		t.Fatalf("SparsityOfVec = %d, %v", count, frac)
	}
	if c, f := SparsityOfVec(nil, 0.75); c != 0 || f != 0 {
		t.Fatal("empty vector sparsity should be 0")
	}
}

func TestHeavyHitterOverlap(t *testing.T) {
	xTrue := []float64{0, 0, 0, 0, 0, 0, 10, 20, 30, 100}
	xEst := []float64{5, 0, 0, 0, 0, 0, 0, 0, 0, 50}
	// 90th percentile of truth ≈ 37: only index 9 qualifies; est has a
	// non-zero there.
	if got := HeavyHitterOverlap(xTrue, xEst, 90); got != 1 {
		t.Fatalf("overlap = %d, want 1", got)
	}
	if got := HeavyHitterOverlap(xTrue, make([]float64, 10), 90); got != 0 {
		t.Fatal("empty estimate should have no overlap")
	}
}

func TestJobMultiplier(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	log := &eventlog.Log{}
	// Job 1 runs on racks 0 and 1 (servers 0-9 and 10-19).
	log.AppendMembership(eventlog.JobMembership{Job: 1, Server: 0, Start: 0, End: time.Hour})
	log.AppendMembership(eventlog.JobMembership{Job: 1, Server: 15, Start: 0, End: time.Hour})
	log.AppendMembership(eventlog.JobMembership{Job: 2, Server: 55, Start: 0, End: time.Hour})
	mult := JobMultiplier(log, top, 0, time.Hour, 5)
	p := NewProblem(top)
	if len(mult) != p.NumPairs() {
		t.Fatalf("multiplier length %d", len(mult))
	}
	// Pair (0,1) should be boosted; pair (0,2) should not.
	var m01, m02 float64
	for i, pr := range p.pairs {
		if pr.src == 0 && pr.dst == 1 {
			m01 = mult[i]
		}
		if pr.src == 0 && pr.dst == 2 {
			m02 = mult[i]
		}
	}
	if m01 <= m02 || m02 != 1 {
		t.Fatalf("multipliers: (0,1)=%v (0,2)=%v", m01, m02)
	}
	// Records outside the window are ignored.
	late := JobMultiplier(log, top, 2*time.Hour, 3*time.Hour, 5)
	for _, v := range late {
		if v != 1 {
			t.Fatal("out-of-window membership leaked into multiplier")
		}
	}
}

func TestTomogravityOnUniformTraffic(t *testing.T) {
	// When the truth IS a gravity-like spread, tomogravity is near-perfect
	// — the prior assumption holds, as in ISP networks.
	p, top := smallProblem(t)
	truth := tm.NewMatrix(top.NumRacks())
	for i := 0; i < top.NumRacks(); i++ {
		for j := 0; j < top.NumRacks(); j++ {
			if i != j {
				truth.Add(i, j, 1e8)
			}
		}
	}
	b := p.LinkCounts(truth)
	x, err := p.Tomogravity(b)
	if err != nil {
		t.Fatal(err)
	}
	if e := RMSRE(p.VecFromTM(truth), x, 0.75); e > 0.01 {
		t.Fatalf("uniform-traffic RMSRE = %v, want ~0", e)
	}
	_ = linalg.Norm1 // keep import if unused elsewhere
}
