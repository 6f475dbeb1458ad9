package tomo

import (
	"math"
	"testing"

	"dctraffic/internal/stats"
	"dctraffic/internal/tm"
	"dctraffic/internal/topology"
)

// driftTM nudges a ToR TM the way consecutive 10-minute windows drift:
// most entries hold, a few move by a fraction of their magnitude.
func driftTM(m *tm.Matrix, r *stats.RNG) *tm.Matrix {
	n := m.N()
	next := tm.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := m.At(i, j)
			if v > 0 && r.Bool(0.3) {
				v = math.Max(0, v+(r.Float64()-0.5)*0.2*v)
			}
			next.Add(i, j, v)
		}
	}
	return next
}

func bitsEqual(t *testing.T, label string, want, got []float64) {
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

// TestEstimatorMatchesProblemBitwise pins every Estimator method to its
// Problem counterpart: the workspace variants must not move a single bit
// (a Cold estimator covers SparsityMax too).
func TestEstimatorMatchesProblemBitwise(t *testing.T) {
	p, top := smallProblem(t)
	e := p.NewEstimator(EstimatorOptions{Cold: true})
	r := stats.NewRNG(9)
	truth := randomTorTM(top, 5)
	mult := make([]float64, p.NumPairs())
	for i := range mult {
		mult[i] = 1 + r.Float64()
	}
	var b, tg, tj, sm []float64
	for step := 0; step < 4; step++ {
		bWant := p.LinkCounts(truth)
		b = e.LinkCountsInto(b, truth)
		bitsEqual(t, "LinkCounts", bWant, b)

		tgWant, err1 := p.Tomogravity(bWant)
		var err2 error
		tg, err2 = e.TomogravityInto(tg, b)
		if err1 != nil || err2 != nil {
			t.Fatalf("tomogravity errors: %v %v", err1, err2)
		}
		bitsEqual(t, "Tomogravity", tgWant, tg)

		tjWant, err1 := p.TomogravityWithMultiplier(bWant, mult)
		tj, err2 = e.TomogravityWithMultiplierInto(tj, b, mult)
		if err1 != nil || err2 != nil {
			t.Fatalf("multiplier errors: %v %v", err1, err2)
		}
		bitsEqual(t, "TomogravityWithMultiplier", tjWant, tj)

		smWant, err1 := p.SparsityMax(bWant)
		sm, err2 = e.SparsityMaxInto(sm, b)
		if err1 != nil || err2 != nil {
			t.Fatalf("sparsity errors: %v %v", err1, err2)
		}
		bitsEqual(t, "SparsityMax", smWant, sm)
		if st := e.SolveStats(); st.Warm {
			t.Fatalf("cold estimator reported a warm solve: %+v", st)
		}

		truth = driftTM(truth, r)
	}
}

// TestEstimatorWarmSparsityMax drives a warm estimator over drifting
// windows on the real small topology and checks the warm-start contract:
// feasibility within the certification tolerance, the rank sparsity bound,
// and that warm repair engages at least once. Warm starts may move only
// the sparsity-max estimate: after every warm solve, TomogravityInto and
// TomogravityWithMultiplierInto still equal the Problem methods bit for
// bit, so the analysis's tomogravity series never depend on the chain.
func TestEstimatorWarmSparsityMax(t *testing.T) {
	p, top := smallProblem(t)
	e := p.NewEstimator(EstimatorOptions{})
	r := stats.NewRNG(17)
	truth := randomTorTM(top, 5)
	mult := make([]float64, p.NumPairs())
	mr := stats.NewRNG(18)
	for i := range mult {
		mult[i] = 1 + mr.Float64()
	}
	warms := 0
	var b, sm, tg, tj []float64
	for step := 0; step < 12; step++ {
		b = e.LinkCountsInto(b, truth)
		var err error
		sm, err = e.SparsityMaxInto(sm, b)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if st := e.SolveStats(); st.Warm {
			warms++
		}
		tgWant, err1 := p.Tomogravity(b)
		tg, err = e.TomogravityInto(tg, b)
		if err1 != nil || err != nil {
			t.Fatalf("step %d: tomogravity errors: %v %v", step, err1, err)
		}
		bitsEqual(t, "Tomogravity", tgWant, tg)
		tjWant, err1 := p.TomogravityWithMultiplier(b, mult)
		tj, err = e.TomogravityWithMultiplierInto(tj, b, mult)
		if err1 != nil || err != nil {
			t.Fatalf("step %d: multiplier errors: %v %v", step, err1, err)
		}
		bitsEqual(t, "TomogravityWithMultiplier", tjWant, tj)
		maxAbsB := 0.0
		for _, v := range b {
			maxAbsB = math.Max(maxAbsB, math.Abs(v))
		}
		nz := 0
		for _, v := range sm {
			if v > 0 {
				nz++
			}
		}
		if nz > p.NumConstraints() {
			t.Fatalf("step %d: %d non-zeros > rank bound %d", step, nz, p.NumConstraints())
		}
		ax := p.a.MulVec(sm)
		for i := range ax {
			if math.Abs(ax[i]-b[i]) > 1e-6*(1+maxAbsB) {
				t.Fatalf("step %d: residual %v at row %d", step, ax[i]-b[i], i)
			}
		}
		truth = driftTM(truth, r)
	}
	if warms == 0 {
		t.Fatal("warm repair never engaged")
	}
}

// TestEstimatorSteadyStateAllocs requires a fully warmed estimator to
// process a window without allocating.
func TestEstimatorSteadyStateAllocs(t *testing.T) {
	top := topology.MustNew(topology.SmallConfig())
	p := NewProblem(top)
	e := p.NewEstimator(EstimatorOptions{})
	r := stats.NewRNG(23)
	truths := []*tm.Matrix{randomTorTM(top, 5)}
	for i := 0; i < 5; i++ {
		truths = append(truths, driftTM(truths[len(truths)-1], r))
	}
	b := make([]float64, p.NumConstraints())
	tg := make([]float64, p.NumPairs())
	sm := make([]float64, p.NumPairs())
	for _, truth := range truths {
		b = e.LinkCountsInto(b, truth)
		if _, err := e.TomogravityInto(tg, b); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SparsityMaxInto(sm, b); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	if allocs := testing.AllocsPerRun(10, func() {
		truth := truths[k%len(truths)]
		k++
		b = e.LinkCountsInto(b, truth)
		if _, err := e.TomogravityInto(tg, b); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SparsityMaxInto(sm, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state window costs %v allocs/op", allocs)
	}
}
