// Package simplex implements a two-phase simplex solver for linear
// programs in standard form:
//
//	minimize    c·x
//	subject to  A·x = b,  x >= 0
//
// It exists to reproduce the paper's "sparsity maximization" tomography
// baseline (§5.2): the sparsest traffic matrix consistent with link counts.
// A basic feasible solution of {A·x = b, x >= 0} has at most rank(A)
// non-zero entries — the structural sparsity the MILP in the paper seeks —
// so FeasibleBasic (phase 1 alone) already yields a maximally sparse
// candidate; Solve adds an optional phase-2 objective.
//
// The solver (Solver) is a revised simplex under Bland's rule, which
// guarantees termination: column-sparse A, an eta (product-form) basis
// file, and — for warm starts only — an LU factorization of the basis
// whose solves walk the factors' nonzero patterns. Because the eta file
// replays exactly the arithmetic a dense simplex tableau applies to each
// column, cold-start pivot sequences and results are bit-identical to the
// tableau, which the package's tests keep as their oracle.
//
// Consecutive tomography windows differ only in b, so a Solver additionally
// offers WarmFeasibleBasic: a single-artificial primal repair from the
// previous window's basis that typically needs a handful of pivots instead
// of hundreds, falling back to a cold solve whenever the repaired solution
// fails exact feasibility checks.
package simplex

import (
	"errors"

	"dctraffic/internal/linalg"
)

// Errors returned by the solver.
var (
	ErrInfeasible = errors.New("simplex: infeasible")
	ErrUnbounded  = errors.New("simplex: unbounded")
)

const eps = 1e-9

// Result holds the solver output. Results returned by a Solver are owned
// by it and overwritten by the next solve; package-level Solve and
// FeasibleBasic return fresh copies.
type Result struct {
	X     []float64 // primal solution, len = number of variables
	Obj   float64   // objective value c·x
	Basis []int     // indices of basic variables (<= rank(A) entries)
	Iters int       // simplex pivots performed
}

// Solve minimizes c·x subject to A·x = b, x >= 0. Rows with negative b are
// negated first. Pass a nil c to stop after phase 1 (any feasible basic
// solution).
func Solve(a *linalg.Matrix, b, c []float64) (*Result, error) {
	if len(b) != a.Rows || (c != nil && len(c) != a.Cols) {
		panic("simplex: dimension mismatch")
	}
	res, err := NewSolver(a).Solve(b, c)
	if err != nil {
		return nil, err
	}
	out := &Result{
		X:     append([]float64(nil), res.X...),
		Obj:   res.Obj,
		Iters: res.Iters,
	}
	if len(res.Basis) > 0 {
		out.Basis = append([]int(nil), res.Basis...)
	}
	return out, nil
}

// FeasibleBasic returns a basic feasible solution of {A·x = b, x >= 0},
// which has at most rank(A) strictly positive entries. This is the
// sparsity-maximization estimator of §5.2.
func FeasibleBasic(a *linalg.Matrix, b []float64) (*Result, error) {
	return Solve(a, b, nil)
}
