package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when a solve encounters a (numerically) singular
// system.
var ErrSingular = errors.New("linalg: singular matrix")

// WLSProject solves the equality-constrained weighted least squares problem
//
//	minimize   Σ (x_j − g_j)² / w_j
//	subject to A·x = b
//
// whose closed form is x = g + W·Aᵀ·(A·W·Aᵀ)⁻¹·(b − A·g) with W = diag(w).
// This is the adjustment step of tomogravity (Zhang et al.): g is the
// gravity prior, w the per-entry confidence (typically w = g), and A·x = b
// the link-counter constraints. Zero or negative weights are clamped to a
// small positive floor so entries the prior believes are zero can still
// move a little to satisfy the constraints.
//
// The result may contain small negative entries; callers typically clamp to
// zero afterwards (ClampNonNeg).
func WLSProject(a *Matrix, b, g, w []float64) ([]float64, error) {
	return NewWLSWorkspace(a).Project(nil, b, g, w)
}

// WLSWorkspace holds the scratch state of WLSProject for one fixed
// constraint matrix, so repeated projections (one per tomography window)
// run without per-call allocation. The arithmetic — operation order and
// all — matches WLSProject exactly, so switching a caller to a workspace
// cannot move a single bit of its results (regression-tested against a
// reference copy of the dense implementation).
//
// A workspace is not goroutine-safe; use one per worker.
type WLSWorkspace struct {
	a   *Matrix // not owned; must not change while the workspace lives
	csc *CSC    // column index of a, for the sparse Aᵀ products

	wc, wy []float64 // per-variable scratch (len Cols)
	ag, r  []float64 // per-constraint scratch (len Rows)
	nm     *Matrix   // A·W·Aᵀ normal matrix (Rows×Rows)
	l      *Matrix   // its Cholesky factor
	cy, cx []float64 // Cholesky forward/back scratch
}

// NewWLSWorkspace builds a reusable projection workspace for a.
func NewWLSWorkspace(a *Matrix) *WLSWorkspace {
	m, n := a.Rows, a.Cols
	return &WLSWorkspace{
		a:   a,
		csc: NewCSC(a),
		wc:  make([]float64, n),
		wy:  make([]float64, n),
		ag:  make([]float64, m),
		r:   make([]float64, m),
		nm:  NewMatrix(m, m),
		l:   NewMatrix(m, m),
		cy:  make([]float64, m),
		cx:  make([]float64, m),
	}
}

// Project solves the same problem as WLSProject, writing the result into
// dst when it has the right length (allocating otherwise) and returning
// it. See WLSProject for the formulation.
func (ws *WLSWorkspace) Project(dst []float64, b, g, w []float64) ([]float64, error) {
	a := ws.a
	if a.Cols != len(g) || a.Cols != len(w) || a.Rows != len(b) {
		panic("linalg: WLSProject dim mismatch")
	}
	const wFloor = 1e-9
	for i, v := range w {
		if v < wFloor {
			v = wFloor
		}
		ws.wc[i] = v
	}
	// r = b − A·g
	a.MulVecInto(ws.ag, g)
	for i := range ws.r {
		ws.r[i] = b[i] - ws.ag[i]
	}
	// M = A·W·Aᵀ. The dense path materializes a·diag(w) and aᵀ and
	// multiplies them; here the same partial products accumulate in the
	// same (i, k, j) order, but k runs over the non-zeros of row i and j
	// over the non-zeros of column k. The skipped terms are exact ±0
	// contributions (x + ±0 == x for every partial sum arising here, and
	// the accumulators can never be -0 because subtraction of equal
	// values yields +0), so the result is bit-identical.
	nm := ws.nm
	for i := range nm.Data {
		nm.Data[i] = 0
	}
	m, n := a.Rows, a.Cols
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		orow := nm.Data[i*m : (i+1)*m]
		for k, v := range row {
			if v == 0 {
				continue
			}
			awik := v * ws.wc[k]
			if awik == 0 {
				continue
			}
			for t := ws.csc.ColPtr[k]; t < ws.csc.ColPtr[k+1]; t++ {
				orow[ws.csc.RowIdx[t]] += awik * ws.csc.Val[t]
			}
		}
	}
	// Solve M·y = r with a small ridge for numerical safety: link-count
	// constraint sets routinely contain redundant rows (e.g. sum of ToR
	// uplinks equals sum of core downlinks), which make M singular.
	ridge := 1e-8 * traceOf(nm) / float64(nm.Rows)
	if ridge <= 0 {
		ridge = 1e-12
	}
	y, err := ws.solveSPD(nm, ws.r, ridge)
	if err != nil {
		return nil, err
	}
	// x = g + W·Aᵀ·y
	if len(dst) != n {
		dst = make([]float64, n)
	}
	copy(dst, g)
	ws.csc.TMulVecInto(ws.wy, y)
	for j := range dst {
		dst[j] += ws.wc[j] * ws.wy[j]
	}
	return dst, nil
}

// solveSPD solves a·x = b for a symmetric positive-definite a by
// Cholesky factorization (a = L·Lᵀ), adding the ridge lambda to the
// diagonal, with the factor and solve vectors taken from the workspace
// (stale upper-triangle entries of the previous factor are never read).
// It returns ErrSingular on a non-positive pivot.
func (ws *WLSWorkspace) solveSPD(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	n := a.Rows
	l := ws.l
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			if i == j {
				s += lambda
			}
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, j, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	y := ws.cy
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	x := ws.cx
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

func traceOf(m *Matrix) float64 {
	t := 0.0
	for i := 0; i < m.Rows && i < m.Cols; i++ {
		t += m.At(i, i)
	}
	return t
}

// ClampNonNeg zeroes negative entries of v in place and returns v.
func ClampNonNeg(v []float64) []float64 {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
	return v
}
