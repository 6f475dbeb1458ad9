package simplex

import (
	"math"
	"testing"
	"testing/quick"

	"dctraffic/internal/linalg"
	"dctraffic/internal/stats"
)

// refLUFtran is luFtran as a dense loop over every entry of lu, zeros
// included: the reference the pattern-walking kernel must equal.
func refLUFtran(s *Solver, w []float64) {
	m := s.m
	lu := s.lu
	for col := 0; col < m; col++ {
		if p := s.luPerm[col]; p != col {
			w[col], w[p] = w[p], w[col]
		}
	}
	for col := 0; col < m; col++ {
		wc := w[col]
		if wc == 0 {
			continue
		}
		for r := col + 1; r < m; r++ {
			w[r] -= lu[r*m+col] * wc
		}
	}
	for i := m - 1; i >= 0; i-- {
		sum := w[i]
		for j := i + 1; j < m; j++ {
			sum -= lu[i*m+j] * w[j]
		}
		w[i] = sum / lu[i*m+i]
	}
}

// refLUBtran is luBtran as a dense loop over lu.
func refLUBtran(s *Solver, w []float64) {
	m := s.m
	lu := s.lu
	for i := 0; i < m; i++ {
		sum := w[i]
		for j := 0; j < i; j++ {
			sum -= lu[j*m+i] * w[j]
		}
		w[i] = sum / lu[i*m+i]
	}
	for i := m - 2; i >= 0; i-- {
		sum := w[i]
		for r := i + 1; r < m; r++ {
			sum -= lu[r*m+i] * w[r]
		}
		w[i] = sum
	}
	for col := m - 1; col >= 0; col-- {
		if p := s.luPerm[col]; p != col {
			w[col], w[p] = w[p], w[col]
		}
	}
}

// refApplyEtas is applyEtas without the skip of zero pivot entries.
func refApplyEtas(s *Solver, w []float64) {
	for e := 0; e < len(s.etaRow); e++ {
		r := s.etaRow[e]
		w[r] *= s.etaInv[e]
		wr := w[r]
		for t := s.etaStart[e]; t < s.etaStart[e+1]; t++ {
			w[s.etaIdx[t]] -= s.etaVal[t] * wr
		}
	}
}

// checkKernels compares the solver's kernels, on its current factors and
// eta file, against the dense references with == on every entry (exact
// equality apart from the sign of a zero): luFtran and the full
// ftranColumn on every nonbasic column, luBtran on every unit vector.
func checkKernels(t *testing.T, s *Solver, label string) {
	t.Helper()
	if !s.luValid {
		t.Fatalf("%s: no valid factors", label)
	}
	m := s.m
	got := make([]float64, m)
	want := make([]float64, m)
	same := func(kernel string, j int) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s(%d)[%d]: got %v want %v", label, kernel, j, i, got[i], want[i])
			}
		}
	}
	for j := 0; j <= s.virtualIdx(); j++ {
		if s.pos[j] >= 0 {
			continue
		}
		s.loadColumn(j)
		copy(got, s.v)
		copy(want, s.v)
		s.luFtran(got)
		refLUFtran(s, want)
		same("luFtran", j)
		s.loadColumn(j)
		copy(want, s.v)
		refLUFtran(s, want)
		refApplyEtas(s, want)
		s.ftranColumn(j)
		copy(got, s.v)
		same("ftranColumn", j)
	}
	for i := 0; i < m; i++ {
		for k := range got {
			got[k], want[k] = 0, 0
		}
		got[i], want[i] = 1, 1
		s.luBtran(got)
		refLUBtran(s, want)
		same("luBtran", i)
	}
}

// TestLUKernel pins refactor's factor patterns and the luFtran, luBtran
// and applyEtas kernels to the dense references bit for bit (the warm
// path is their only consumer, so the cold bit-identity tests never
// exercise them). It runs dense random matrices whose partial pivoting
// genuinely permutes rows, routing-shaped bases mixing real, artificial
// and virtual columns, and the factorizations of a warm-started chain.
func TestLUKernel(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		for seed := uint64(41); seed < 49; seed++ {
			r := stats.NewRNG(seed)
			m := 6
			a := linalg.NewMatrix(m, m)
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					a.Set(i, j, math.Floor(r.Float64()*10)-4) // forces row swaps
				}
			}
			s := NewSolver(a)
			b := make([]float64, m)
			for i := range b {
				b[i] = 1
			}
			s.resetCold(b)
			for i := 0; i < m; i++ { // basis = all real columns
				s.pos[s.n+i] = -1
				s.basic[i] = i
				s.pos[i] = i
			}
			if err := s.refactor(); err != nil {
				t.Fatal(err)
			}
			checkKernels(t, s, "dense")
			// The references themselves must solve B and Bᵀ.
			w := make([]float64, m)
			for i := range w {
				w[i] = r.Float64()*4 - 2
			}
			got := append([]float64(nil), w...)
			refLUFtran(s, got)
			want, err := solveLU(a, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-9 {
					t.Errorf("seed %d: refLUFtran[%d]: got %v want %v", seed, i, got[i], want[i])
				}
			}
			at := linalg.NewMatrix(m, m)
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					at.Set(i, j, a.At(j, i))
				}
			}
			gotT := append([]float64(nil), w...)
			refLUBtran(s, gotT)
			wantT, err := solveLU(at, w)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantT {
				if math.Abs(wantT[i]-gotT[i]) > 1e-9 {
					t.Errorf("seed %d: refLUBtran[%d]: got %v want %v", seed, i, gotT[i], wantT[i])
				}
			}
		}
	})

	t.Run("routing", func(t *testing.T) {
		skipped := 0
		for seed := uint64(1); seed <= 12; seed++ {
			r := stats.NewRNG(seed)
			m := 10 + r.IntN(30)
			n := m + r.IntN(80)
			a := randomRouting(r, m, n, 4)
			x := make([]float64, n)
			for j := range x {
				if r.Bool(0.3) {
					x[j] = r.Float64() * 1e9
				}
			}
			b := a.MulVec(x)
			duplicateRow(a, b, 0, m-1) // keeps an artificial basic
			s := NewSolver(a)
			if _, err := s.FeasibleBasic(b); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if err := s.refactor(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkKernels(t, s, "routing")
			skipped += m*(m-1) - len(s.lCol.idx) - len(s.uRow.idx)
			// Swap a virtual column in as repairPrimal builds it: the
			// negated sum of the basic columns of a row set holding rstar,
			// which keeps the basis nonsingular.
			rstar := r.IntN(m)
			for i := range s.aq {
				s.aq[i] = 0
			}
			for i := 0; i < m; i++ {
				if i != rstar && !r.Bool(0.3) {
					continue
				}
				bj := s.basic[i]
				if bj >= s.n {
					s.aq[bj-s.n] -= 1
					continue
				}
				for t := s.csc.ColPtr[bj]; t < s.csc.ColPtr[bj+1]; t++ {
					row := s.csc.RowIdx[t]
					s.aq[row] -= s.sign[row] * s.csc.Val[t]
				}
			}
			s.pos[s.basic[rstar]] = -1
			s.basic[rstar] = s.virtualIdx()
			s.pos[s.virtualIdx()] = rstar
			if err := s.refactor(); err != nil {
				t.Fatalf("seed %d: virtual basis: %v", seed, err)
			}
			checkKernels(t, s, "routing+virtual")
		}
		if skipped == 0 {
			t.Fatal("no factor had an exact zero: the skips never engaged")
		}
	})

	t.Run("warm-chain", func(t *testing.T) {
		for seed := uint64(1); seed <= 3; seed++ {
			r := stats.NewRNG(seed)
			a, bs := warmSequence(r, 8, 25)
			s := NewSolver(a)
			warms := 0
			for step, b := range bs {
				if _, err := s.WarmFeasibleBasic(b); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if s.Stats().Warm {
					warms++
					// The solve's last factorization, under the etas of
					// the pivots that followed it.
					checkKernels(t, s, "warm solve")
				}
				// The factorization the next window starts from.
				if err := s.refactor(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				checkKernels(t, s, "next basis")
			}
			if warms == 0 {
				t.Fatalf("seed %d: warm repair never engaged", seed)
			}
		}
	})
}

// solveLU solves a·x = b for square a using Gaussian elimination with
// partial pivoting: the dense reference the LU kernel tests solve B and
// Bᵀ with. a and b are not modified.
func solveLU(a *linalg.Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("simplex: solveLU needs a square system")
	}
	// Augmented working copy.
	m := linalg.NewMatrix(n, n)
	copy(m.Data, a.Data)
	x := append([]float64(nil), b...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p, best := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best < 1e-300 {
			return nil, linalg.ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[p*n+j] = m.Data[p*n+j], m.Data[col*n+j]
			}
			x[col], x[p] = x[p], x[col]
		}
		piv := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / piv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

func TestSolveLU(t *testing.T) {
	a := linalg.NewMatrix(3, 3)
	vals := [][]float64{{2, 1, 1}, {1, 3, 2}, {1, 0, 0}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	b := []float64{4, 5, 6}
	x, err := solveLU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := a.MulVec(x)
	for i := range b {
		if math.Abs(got[i]-b[i]) > 1e-9 {
			t.Fatalf("residual at %d: %v vs %v", i, got[i], b[i])
		}
	}
}

func TestSolveLUSingular(t *testing.T) {
	a := linalg.NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := solveLU(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

// Property: solveLU solutions reproduce b for random well-conditioned
// systems (diagonally dominant by construction).
func TestSolveLUProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 3 + r.IntN(6)
		a := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				v := r.NormFloat64()
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			a.Add(i, i, rowSum+1) // dominance => nonsingular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		x, err := solveLU(a, b)
		if err != nil {
			return false
		}
		res := 0.0
		for i, v := range a.MulVec(x) {
			res += (v - b[i]) * (v - b[i])
		}
		return math.Sqrt(res) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
