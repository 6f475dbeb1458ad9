package tomo

import (
	"fmt"

	"dctraffic/internal/linalg"
	"dctraffic/internal/simplex"
	"dctraffic/internal/tm"
)

// EstimatorOptions configures an Estimator.
type EstimatorOptions struct {
	// Cold disables warm-starting the sparsity-max simplex between
	// consecutive windows. A cold estimator reproduces Problem.SparsityMax
	// bit for bit (the revised solver's cold path is pinned to the dense
	// tableau), so digests from before warm starts existed can be
	// regenerated exactly.
	Cold bool
}

// Estimator bundles the reusable per-worker state for estimating many
// tomography windows against one Problem: a revised simplex solver (warm
// started from window to window unless Cold), a weighted-least-squares
// workspace, and the gravity-prior scratch vectors. Steady-state window
// estimates perform no per-call allocation beyond what the caller passes
// in.
//
// Results are bit-identical to the corresponding Problem methods —
// Tomogravity, TomogravityWithMultiplier, and (when Cold, or on the first
// window of a chain) SparsityMax — so sharding windows across estimators
// cannot move the analysis digests. Warm-started SparsityMaxInto returns a
// different (equally valid) basic feasible solution; see the solver
// package for the warm-start contract.
//
// An Estimator is not goroutine-safe; use one per worker. The Problem
// itself stays immutable and shared.
type Estimator struct {
	p    *Problem
	opts EstimatorOptions

	solver *simplex.Solver
	wls    *linalg.WLSWorkspace

	g       []float64 // gravity prior (and multiplied prior)
	out, in []float64 // per-rack totals
	vec     []float64 // pair-vector scratch
}

// NewEstimator builds an Estimator for the problem.
func (p *Problem) NewEstimator(opts EstimatorOptions) *Estimator {
	return &Estimator{
		p:      p,
		opts:   opts,
		solver: simplex.NewSolverFromCSC(p.csc),
		wls:    linalg.NewWLSWorkspace(p.a),
		g:      make([]float64, len(p.pairs)),
		out:    make([]float64, p.racks),
		in:     make([]float64, p.racks),
		vec:    make([]float64, len(p.pairs)),
	}
}

// SolveStats reports the simplex effort of the most recent SparsityMaxInto
// call (pivots, refactorizations, warm/fallback flags).
func (e *Estimator) SolveStats() simplex.SolveStats { return e.solver.Stats() }

// LinkCountsInto is Problem.LinkCounts writing into dst (allocating only
// when dst has the wrong length). Same row-major accumulation, so the
// counters are bit-identical.
func (e *Estimator) LinkCountsInto(dst []float64, truth *tm.Matrix) []float64 {
	p := e.p
	p.VecFromTMInto(e.vec, truth)
	if len(dst) != p.a.Rows {
		dst = make([]float64, p.a.Rows)
	}
	p.a.MulVecInto(dst, e.vec)
	return dst
}

// gravityPrior fills e.g with Problem.GravityPrior's estimate — identical
// loop order and arithmetic, reused storage.
func (e *Estimator) gravityPrior(b []float64) []float64 {
	p := e.p
	out, in := e.out, e.in
	for i := range out {
		out[i], in[i] = 0, 0
	}
	total := p.rowColSumsInto(out, in, b)
	g := e.g
	for i := range g {
		g[i] = 0
	}
	if total <= 0 {
		return g
	}
	sum := 0.0
	for i, pr := range p.pairs {
		g[i] = out[pr.src] * in[pr.dst] / total
		sum += g[i]
	}
	if sum > 0 {
		scale := total / sum
		for i := range g {
			g[i] *= scale
		}
	}
	return g
}

// TomogravityInto is Problem.Tomogravity writing into dst (allocating only
// when dst has the wrong length). Bit-identical: the prior arithmetic is
// shared and the WLS workspace is pinned to the dense projection.
func (e *Estimator) TomogravityInto(dst, b []float64) ([]float64, error) {
	g := e.gravityPrior(b)
	x, err := e.wls.Project(dst, b, g, g)
	if err != nil {
		return nil, fmt.Errorf("tomo: tomogravity adjustment: %w", err)
	}
	return linalg.ClampNonNeg(x), nil
}

// TomogravityWithMultiplierInto is Problem.TomogravityWithMultiplier
// writing into dst; bit-identical for the same reasons as TomogravityInto.
func (e *Estimator) TomogravityWithMultiplierInto(dst, b, mult []float64) ([]float64, error) {
	if len(mult) != len(e.p.pairs) {
		panic("tomo: multiplier size mismatch")
	}
	g := e.gravityPrior(b)
	var before, after float64
	for i := range g {
		before += g[i]
		g[i] *= mult[i]
		after += g[i]
	}
	if after > 0 && before > 0 {
		scale := before / after
		for i := range g {
			g[i] *= scale
		}
	}
	x, err := e.wls.Project(dst, b, g, g)
	if err != nil {
		return nil, fmt.Errorf("tomo: job-prior adjustment: %w", err)
	}
	return linalg.ClampNonNeg(x), nil
}

// SparsityMaxInto is Problem.SparsityMax writing into dst. Unless the
// estimator is Cold, consecutive calls warm-start the simplex from the
// previous window's basis (consecutive windows differ only in b), which
// typically needs a handful of repair pivots instead of a full cold solve;
// the solver falls back to a cold solve — bit-identical to
// Problem.SparsityMax — whenever the warm result cannot be certified
// exactly feasible. Check SolveStats for the effort breakdown.
func (e *Estimator) SparsityMaxInto(dst, b []float64) ([]float64, error) {
	var res *simplex.Result
	var err error
	if e.opts.Cold {
		res, err = e.solver.FeasibleBasic(b)
	} else {
		res, err = e.solver.WarmFeasibleBasic(b)
	}
	if err != nil {
		return nil, fmt.Errorf("tomo: sparsity maximization: %w", err)
	}
	if len(dst) != len(res.X) {
		dst = make([]float64, len(res.X))
	}
	copy(dst, res.X)
	return dst, nil
}
