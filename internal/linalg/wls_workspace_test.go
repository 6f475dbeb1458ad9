package linalg

import (
	"fmt"
	"math"
	"testing"

	"dctraffic/internal/stats"
)

// wlsProjectReference is the original dense WLSProject implementation,
// kept verbatim as the bit-identity reference for WLSWorkspace.Project
// (which reorders nothing, only reuses storage and skips exact-zero
// terms).
func wlsProjectReference(a *Matrix, b, g, w []float64) ([]float64, error) {
	if a.Cols != len(g) || a.Cols != len(w) || a.Rows != len(b) {
		panic("linalg: WLSProject dim mismatch")
	}
	const wFloor = 1e-9
	wc := make([]float64, len(w))
	for i, v := range w {
		if v < wFloor {
			v = wFloor
		}
		wc[i] = v
	}
	r := Sub(b, a.MulVec(g))
	aw := a.MulDiagRight(wc)
	m := aw.Mul(a.T())
	ridge := 1e-8 * traceOf(m) / float64(m.Rows)
	if ridge <= 0 {
		ridge = 1e-12
	}
	y, err := SolveSPD(m, r, ridge)
	if err != nil {
		return nil, err
	}
	x := append([]float64(nil), g...)
	at := a.T()
	wy := at.MulVec(y)
	for j := range x {
		x[j] += wc[j] * wy[j]
	}
	return x, nil
}

// randomWLSInstance builds a routing-like sparse system with a feasible,
// paper-magnitude prior.
func randomWLSInstance(seed uint64) (*Matrix, []float64, []float64) {
	r := stats.NewRNG(seed)
	m := 6 + r.IntN(10)
	n := m + r.IntN(30)
	a := NewMatrix(m, n)
	for col := 0; col < n; col++ {
		k := 1 + r.IntN(3)
		for t := 0; t < k; t++ {
			a.Set(r.IntN(m), col, 1)
		}
	}
	g := make([]float64, n)
	for j := range g {
		if r.Bool(0.4) {
			g[j] = r.Float64() * 1e9
		}
	}
	b := a.MulVec(g)
	for i := range b {
		b[i] *= 1 + (r.Float64()-0.5)*0.1 // perturb so the projection works
	}
	return a, b, g
}

// TestWLSWorkspaceMatchesReferenceBitwise requires Project (and therefore
// WLSProject, which delegates to it) to reproduce the original dense
// implementation bit for bit, weights equal to the prior as tomogravity
// uses them.
func TestWLSWorkspaceMatchesReferenceBitwise(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		a, b, g := randomWLSInstance(seed)
		want, errW := wlsProjectReference(a, b, g, g)
		got, errG := NewWLSWorkspace(a).Project(nil, b, g, g)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("seed %d: error mismatch: %v vs %v", seed, errW, errG)
		}
		if errW != nil {
			continue
		}
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(got[j]) {
				t.Fatalf("seed %d: x[%d] differs: %v vs %v", seed, j, want[j], got[j])
			}
		}
	}
}

// TestWLSWorkspaceSteadyStateAllocs requires repeated projections through
// one workspace to allocate nothing once dst is provided.
func TestWLSWorkspaceSteadyStateAllocs(t *testing.T) {
	a, b, g := randomWLSInstance(7)
	ws := NewWLSWorkspace(a)
	dst := make([]float64, a.Cols)
	if _, err := ws.Project(dst, b, g, g); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Project(dst, b, g, g); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Project allocates %v allocs/op in steady state", allocs)
	}
}

// The dense kernels below serve only the reference: the workspace
// reaches the same products through the CSC index.

// SolveSPD solves a·x = b for a symmetric positive-definite a via Cholesky
// factorization. A tiny ridge (lambda) may be passed to regularize
// near-singular systems; pass 0 for none. a and b are not modified. It
// is the reference's solve, and the one WLSWorkspace.solveSPD must match
// loop for loop.
func SolveSPD(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("linalg: SolveSPD needs a square system")
	}
	// Cholesky: a = L·Lᵀ, L lower-triangular stored densely.
	l := NewMatrix(n, n)
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
	// Forward solve L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back solve Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m·b. It panics on dimension mismatch.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dim mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, v := range brow {
				orow[j] += a * v
			}
		}
	}
	return out
}

// MulDiagRight returns m·diag(d): scales column j by d[j].
func (m *Matrix) MulDiagRight(d []float64) *Matrix {
	if len(d) != m.Cols {
		panic("linalg: MulDiagRight dim mismatch")
	}
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	for i := 0; i < out.Rows; i++ {
		for j := 0; j < out.Cols; j++ {
			out.Data[i*out.Cols+j] *= d[j]
		}
	}
	return out
}

// Sub returns a-b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: Sub dim mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
