package simplex

import (
	"testing"

	"dctraffic/internal/linalg"
	"dctraffic/internal/stats"
)

// tomoSized builds a feasible system shaped like the tomography problem:
// m constraints (≈2·racks) over n = racks·(racks−1) unknowns.
func tomoSized(racks int, seed uint64) (*linalg.Matrix, []float64) {
	r := stats.NewRNG(seed)
	n := racks * (racks - 1)
	m := 2*racks + 4
	a := linalg.NewMatrix(m, n)
	for col := 0; col < n; col++ {
		// Each pair hits ~4 constraints, like a ToR path.
		for k := 0; k < 4; k++ {
			a.Set(r.IntN(m), col, 1)
		}
	}
	x := make([]float64, n)
	for i := range x {
		if r.Bool(0.1) {
			x[i] = r.Float64() * 1e9
		}
	}
	return a, a.MulVec(x)
}

// benchFeasible runs the cold sparsity-max solve through the revised
// sparse solver and through the dense tableau it is pinned against.
func benchFeasible(b *testing.B, racks int, seed uint64) {
	a, rhs := tomoSized(racks, seed)
	b.Run("sparse", func(b *testing.B) {
		s := NewSolver(a)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.FeasibleBasic(rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solveDense(a, rhs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFeasibleBasic8Racks is the sparsity-max solve at test scale.
func BenchmarkFeasibleBasic8Racks(b *testing.B) { benchFeasible(b, 8, 1) }

// BenchmarkFeasibleBasic32Racks approaches paper-scale structure (the
// full 75-rack solve is benchmarked in internal/tomo).
func BenchmarkFeasibleBasic32Racks(b *testing.B) { benchFeasible(b, 32, 2) }

// BenchmarkWarmFeasibleBasic32Racks perturbs the right-hand side ±2%
// between solves and warm-starts each one from the previous basis.
func BenchmarkWarmFeasibleBasic32Racks(b *testing.B) {
	a, rhs := tomoSized(32, 2)
	r := stats.NewRNG(5)
	rhss := make([][]float64, 8)
	for k := range rhss {
		v := append([]float64(nil), rhs...)
		for i := range v {
			v[i] *= 1 + (r.Float64()-0.5)*0.04
		}
		rhss[k] = v
	}
	s := NewSolver(a)
	for _, v := range rhss {
		if _, err := s.WarmFeasibleBasic(v); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.WarmFeasibleBasic(rhss[i%len(rhss)]); err != nil {
			b.Fatal(err)
		}
	}
}
