package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"dctraffic/internal/stats"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// norm2 is the Euclidean norm of v.
func norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	m.Add(1, 1, 1)
	if m.At(1, 1) != 4 || m.At(0, 2) != 2 {
		t.Fatal("Set/Add/At broken")
	}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 0) != 2 || tr.At(1, 1) != 4 {
		t.Fatal("transpose broken")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y := m.MulVec([]float64{5, 6})
	if y[0] != 17 || y[1] != 39 {
		t.Fatalf("MulVec = %v, want [17 39]", y)
	}
}

func TestMul(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, float64(i*3+j+1)) // 1..6
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			b.Set(i, j, float64(i*2+j+1)) // 1..6
		}
	}
	c := a.Mul(b)
	want := [][]float64{{22, 28}, {49, 64}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatal("Dot broken")
	}
	if v := Sub(b, a); v[0] != 3 || v[2] != 3 {
		t.Fatal("Sub broken")
	}
	if Norm1([]float64{-1, 2, -3}) != 6 {
		t.Fatal("Norm1 broken")
	}
}

func TestSolveSPD(t *testing.T) {
	// SPD matrix: AᵀA + I for random A.
	r := stats.NewRNG(1)
	n := 8
	raw := NewMatrix(n, n)
	for i := range raw.Data {
		raw.Data[i] = r.NormFloat64()
	}
	spd := raw.T().Mul(raw)
	for i := 0; i < n; i++ {
		spd.Add(i, i, 1)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	x, err := SolveSPD(spd, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := spd.MulVec(x)
	for i := range b {
		if !almostEq(got[i], b[i], 1e-8) {
			t.Fatalf("SPD residual at %d: %v vs %v", i, got[i], b[i])
		}
	}
}

func TestSolveSPDRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, -1)
	a.Set(1, 1, 1)
	if _, err := SolveSPD(a, []float64{1, 1}, 0); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
}

func TestWLSProjectSatisfiesConstraints(t *testing.T) {
	// 2 constraints over 4 unknowns.
	a := NewMatrix(2, 4)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 2, 1)
	a.Set(1, 3, 1)
	b := []float64{10, 6}
	g := []float64{3, 3, 4, 4} // prior sums: 6 and 8 — both wrong
	w := append([]float64(nil), g...)
	x, err := WLSProject(a, b, g, w)
	if err != nil {
		t.Fatal(err)
	}
	got := a.MulVec(x)
	for i := range b {
		if !almostEq(got[i], b[i], 1e-6) {
			t.Fatalf("constraint %d: %v, want %v", i, got[i], b[i])
		}
	}
	// Equal priors within a constraint should be adjusted equally.
	if !almostEq(x[0], x[1], 1e-9) || !almostEq(x[2], x[3], 1e-9) {
		t.Fatalf("symmetric prior, asymmetric solution: %v", x)
	}
}

func TestWLSProjectRedundantConstraints(t *testing.T) {
	// Add a duplicated constraint row; the ridge must keep the solve stable.
	a := NewMatrix(3, 3)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 2, 1)
	a.Set(2, 0, 1)
	a.Set(2, 1, 1) // duplicate of row 0
	b := []float64{4, 2, 4}
	g := []float64{1, 1, 1}
	x, err := WLSProject(a, b, g, g)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0]+x[1], 4, 1e-4) || !almostEq(x[2], 2, 1e-4) {
		t.Fatalf("redundant-constraint solution %v", x)
	}
}

func TestWLSProjectKeepsPriorWhenConsistent(t *testing.T) {
	// If the prior already satisfies the constraints, it is returned as-is.
	a := NewMatrix(1, 3)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(0, 2, 1)
	g := []float64{2, 3, 5}
	x, err := WLSProject(a, []float64{10}, g, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g {
		if !almostEq(x[i], g[i], 1e-6) {
			t.Fatalf("consistent prior perturbed: %v", x)
		}
	}
}

func TestClampNonNeg(t *testing.T) {
	v := ClampNonNeg([]float64{-1, 2, -0.5, 0})
	if v[0] != 0 || v[1] != 2 || v[2] != 0 || v[3] != 0 {
		t.Fatalf("ClampNonNeg = %v", v)
	}
}

// Property: WLSProject always satisfies constraints (up to the ridge
// tolerance) for random feasible systems.
func TestWLSProjectProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		nCols := 4 + r.IntN(8)
		nRows := 1 + r.IntN(3)
		a := NewMatrix(nRows, nCols)
		for i := range a.Data {
			if r.Bool(0.5) {
				a.Data[i] = 1
			}
		}
		// Feasible b: derive from a random non-negative x*.
		xs := make([]float64, nCols)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		b := a.MulVec(xs)
		g := make([]float64, nCols)
		for i := range g {
			g[i] = r.Float64() * 100
		}
		x, err := WLSProject(a, b, g, g)
		if err != nil {
			return false
		}
		res := Sub(a.MulVec(x), b)
		return norm2(res) <= 1e-3*(1+norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
