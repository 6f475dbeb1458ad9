package simplex

import (
	"fmt"
	"math"

	"dctraffic/internal/linalg"
)

// This file is the dense two-phase simplex tableau, the test oracle of
// the revised solver in solver.go: the equivalence tests in sparse_test.go
// pin cold solves bit-identical to it.

// tableau is the dense simplex tableau: rows are constraints plus the
// objective row; basic tracks which variable is basic in each row.
type tableau struct {
	m, n  int // constraints, variables (including any artificials)
	a     []float64
	b     []float64
	c     []float64 // reduced-cost row
	obj   float64
	basic []int
	iters int
}

func (t *tableau) at(i, j int) float64     { return t.a[i*t.n+j] }
func (t *tableau) set(i, j int, v float64) { t.a[i*t.n+j] = v }

// pivot performs a pivot on (row, col) in place.
func (t *tableau) pivot(row, col int) {
	t.iters++
	p := t.at(row, col)
	inv := 1 / p
	for j := 0; j < t.n; j++ {
		t.a[row*t.n+j] *= inv
	}
	t.b[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.at(i, col)
		if f == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			t.a[i*t.n+j] -= f * t.a[row*t.n+j]
		}
		t.b[i] -= f * t.b[row]
	}
	f := t.c[col]
	if f != 0 {
		for j := 0; j < t.n; j++ {
			t.c[j] -= f * t.a[row*t.n+j]
		}
		t.obj -= f * t.b[row]
	}
	t.basic[row] = col
}

// iterate runs simplex pivots with Bland's rule until optimal or unbounded.
// allowed limits entering variables (nil means all).
func (t *tableau) iterate(allowed func(j int) bool) error {
	maxIters := 50 * (t.m + t.n) * 4
	for {
		// Bland: entering variable = smallest index with negative reduced cost.
		col := -1
		for j := 0; j < t.n; j++ {
			if t.c[j] < -eps && (allowed == nil || allowed(j)) {
				col = j
				break
			}
		}
		if col < 0 {
			return nil // optimal
		}
		// Ratio test with Bland tie-break on basic variable index.
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.at(i, col)
			if aij > eps {
				ratio := t.b[i] / aij
				if ratio < bestRatio-eps || (ratio < bestRatio+eps && (row < 0 || t.basic[i] < t.basic[row])) {
					bestRatio = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return ErrUnbounded
		}
		t.pivot(row, col)
		if t.iters > maxIters {
			return fmt.Errorf("simplex: iteration limit exceeded (%d)", maxIters)
		}
	}
}

// solveDense minimizes c·x subject to A·x = b, x >= 0 with the dense
// two-phase tableau. Rows with negative b are negated first. Pass a nil c
// to stop after phase 1 (any feasible basic solution).
func solveDense(a *linalg.Matrix, b, c []float64) (*Result, error) {
	m, n := a.Rows, a.Cols
	if len(b) != m || (c != nil && len(c) != n) {
		panic("simplex: dimension mismatch")
	}
	// Phase 1: add m artificial variables with cost 1 each.
	t := &tableau{m: m, n: n + m}
	t.a = make([]float64, t.m*t.n)
	t.b = make([]float64, m)
	t.c = make([]float64, t.n)
	t.basic = make([]int, m)
	for i := 0; i < m; i++ {
		sign := 1.0
		if b[i] < 0 {
			sign = -1
		}
		for j := 0; j < n; j++ {
			t.set(i, j, sign*a.At(i, j))
		}
		t.b[i] = sign * b[i]
		t.set(i, n+i, 1)
		t.basic[i] = n + i
	}
	// Phase-1 objective: sum of artificials; express reduced costs by
	// subtracting each constraint row (artificials are basic).
	for j := 0; j < t.n; j++ {
		if j >= n {
			continue
		}
		s := 0.0
		for i := 0; i < m; i++ {
			s += t.at(i, j)
		}
		t.c[j] = -s
	}
	for i := 0; i < m; i++ {
		t.obj -= t.b[i]
	}
	if err := t.iterate(nil); err != nil {
		return nil, err
	}
	if -t.obj > 1e-6*(1+linalg.Norm1(b)) {
		return nil, ErrInfeasible
	}
	// Drive any artificial variables out of the basis (degenerate rows).
	for i := 0; i < m; i++ {
		if t.basic[i] >= n {
			pivoted := false
			for j := 0; j < n; j++ {
				if math.Abs(t.at(i, j)) > eps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is all-zero over real variables: redundant
				// constraint; leave the artificial basic at value ~0.
				continue
			}
		}
	}
	if c != nil {
		// Phase 2: install the real objective expressed in the current basis.
		t.c = make([]float64, t.n)
		t.obj = 0
		for j := 0; j < n; j++ {
			t.c[j] = c[j]
		}
		for i := 0; i < m; i++ {
			bj := t.basic[i]
			if bj < n && t.c[bj] != 0 {
				f := t.c[bj]
				for j := 0; j < t.n; j++ {
					t.c[j] -= f * t.at(i, j)
				}
				t.obj -= f * t.b[i]
			}
		}
		// Forbid artificials from re-entering.
		if err := t.iterate(func(j int) bool { return j < n }); err != nil {
			return nil, err
		}
	}
	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if t.basic[i] < n {
			v := t.b[i]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[t.basic[i]] = v
		}
	}
	res := &Result{X: x, Iters: t.iters}
	if c != nil {
		res.Obj = linalg.Dot(c, x)
	}
	for i := 0; i < m; i++ {
		if t.basic[i] < n && t.b[i] > eps {
			res.Basis = append(res.Basis, t.basic[i])
		}
	}
	return res, nil
}
