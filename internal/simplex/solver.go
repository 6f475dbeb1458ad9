package simplex

import (
	"fmt"
	"math"

	"dctraffic/internal/linalg"
)

// refactorEvery bounds the eta-file length during warm-start repair: once
// that many etas have accumulated on top of the LU factors the basis is
// refactorized from scratch. Cold solves never refactorize — their eta
// file replays the dense tableau's per-column arithmetic exactly, which is
// what makes cold results bit-identical to the tableau.
const refactorEvery = 64

// SolveStats describes the effort of the most recent solve on a Solver.
type SolveStats struct {
	Pivots           int  // simplex pivots performed (== Result.Iters)
	Refactorizations int  // basis LU factorizations (warm path only)
	Warm             bool // warm-start repair produced the result
	FellBack         bool // warm start was attempted but fell back to cold
}

// Solver is a revised simplex engine bound to one constraint matrix A.
// The column-sparse index of A is built once; per-solve state (basis, eta
// file, LU factors, scratch vectors) is owned by the Solver and reused, so
// steady-state solves allocate nothing. A Solver is not goroutine-safe;
// use one per worker.
//
// Cold solves (Solve, FeasibleBasic) are bit-identical to the dense
// tableau: the eta file records, per pivot, exactly the row operations the
// tableau applies, so transformed columns (ftran), the basic solution, and
// every Bland / ratio-test decision replay the dense arithmetic. Reduced
// costs are the one exception — they are priced freshly from the basis
// (cᵀB⁻¹ via btran) rather than carried incrementally — but they agree
// with the tableau's c-row to within last-ulp noise on O(1)-scale values
// compared against the fixed 1e-9 threshold, so pivot sequences match
// (pinned by the equivalence tests in sparse_test.go).
//
// WarmFeasibleBasic reuses the previous solve's basis: it refactorizes
// B = LU, recomputes x_B = B⁻¹b, and — if some basic values went negative
// — repairs feasibility with a single-artificial primal phase 1 (see
// tryWarm). Warm results are NOT pinned to the dense pivot sequence;
// instead they are verified exactly — x >= 0, ‖A·x − b‖∞ <=
// 1e-6·(1+max|b|), non-zeros <= rank — with a cold-solve fallback whenever
// verification (or the repair itself) fails.
type Solver struct {
	csc  *linalg.CSC
	m, n int // constraints, real variables (artificials are n..n+m-1)

	sign  []float64 // per-row ±1 applied to A and b (dense negates b<0 rows)
	bbar  []float64 // sign·b for the current solve
	xb    []float64 // basic solution in row order (the tableau's b column)
	basic []int     // variable basic in each row
	pos   []int     // variable -> row, -1 if nonbasic (last slot: virtual)
	y     []float64 // btran scratch
	ys    []float64 // y with row signs folded in
	v     []float64 // ftran column scratch
	ax    []float64 // warm-start residual scratch
	aq    []float64 // original-space column of the warm repair virtual
	iters int

	// Eta file: eta e scales row etaRow[e] by etaInv[e], then subtracts
	// etaVal[t]·(scaled row value) from each row etaIdx[t]. Entry t ranges
	// over [etaStart[e], etaStart[e+1]).
	etaRow   []int32
	etaInv   []float64
	etaStart []int
	etaIdx   []int32
	etaVal   []float64

	// Dense LU of the basis (warm path only): PB = LU with the unit-lower
	// multipliers stored below the diagonal of lu and the row swap done at
	// elimination step k recorded in luPerm[k]. The solves read only the
	// diagonal of lu; its off-diagonal nonzeros are listed in the order
	// the solves walk them: L by column (rows r > k ascending), U by row
	// (columns j > k ascending) and U by column (rows j < k ascending).
	lu      []float64
	luPerm  []int
	lCol    factorPattern
	uRow    factorPattern
	uCol    factorPattern
	luValid bool

	hasBasis bool
	prevSign []float64

	stats SolveStats
	res   Result
}

// factorPattern lists the off-diagonal nonzeros of one triangular factor
// in groups (a row or a column each): group k holds the (index, value)
// pairs idx[t], val[t] for t in [start[k], start[k+1]).
type factorPattern struct {
	start []int
	idx   []int32
	val   []float64
}

// newFactorPattern sizes a pattern for any triangular m×m factor, so
// refactor never allocates.
func newFactorPattern(m int) factorPattern {
	return factorPattern{
		start: make([]int, 1, m+1),
		idx:   make([]int32, 0, m*(m-1)/2),
		val:   make([]float64, 0, m*(m-1)/2),
	}
}

// add appends entry (i, v) to the open group unless v is an exact zero.
func (f *factorPattern) add(i int, v float64) {
	if v != 0 {
		f.idx = append(f.idx, int32(i))
		f.val = append(f.val, v)
	}
}

// closeGroup ends the open group.
func (f *factorPattern) closeGroup() { f.start = append(f.start, len(f.idx)) }

// group returns the indices and values of group k.
func (f *factorPattern) group(k int) ([]int32, []float64) {
	return f.idx[f.start[k]:f.start[k+1]], f.val[f.start[k]:f.start[k+1]]
}

func (f *factorPattern) reset() {
	f.start = f.start[:1]
	f.idx = f.idx[:0]
	f.val = f.val[:0]
}

// NewSolver builds a Solver for the constraint matrix a.
func NewSolver(a *linalg.Matrix) *Solver {
	return NewSolverFromCSC(linalg.NewCSC(a))
}

// NewSolverFromCSC builds a Solver sharing an existing column index (the
// tomography routing matrix is indexed once per tomo.Problem and shared by
// every solver bound to it), which must not be modified while the Solver
// lives.
func NewSolverFromCSC(csc *linalg.CSC) *Solver {
	m, n := csc.Rows, csc.Cols
	return &Solver{
		csc:      csc,
		m:        m,
		n:        n,
		sign:     make([]float64, m),
		bbar:     make([]float64, m),
		xb:       make([]float64, m),
		basic:    make([]int, m),
		pos:      make([]int, n+m+1), // +1: warm repair virtual column
		y:        make([]float64, m),
		ys:       make([]float64, m),
		v:        make([]float64, m),
		ax:       make([]float64, m),
		aq:       make([]float64, m),
		etaStart: make([]int, 1, refactorEvery+1),
		lu:       make([]float64, m*m),
		luPerm:   make([]int, m),
		lCol:     newFactorPattern(m),
		uRow:     newFactorPattern(m),
		uCol:     newFactorPattern(m),
		prevSign: make([]float64, m),
		res:      Result{X: make([]float64, n)},
	}
}

// Stats reports the effort of the most recent solve.
func (s *Solver) Stats() SolveStats { return s.stats }

// Solve minimizes c·x subject to A·x = b, x >= 0 (nil c stops after
// phase 1). The returned Result is owned by the Solver and overwritten by
// the next solve.
func (s *Solver) Solve(b, c []float64) (*Result, error) {
	if len(b) != s.m || (c != nil && len(c) != s.n) {
		panic("simplex: dimension mismatch")
	}
	s.stats = SolveStats{}
	return s.finishCold(b, c)
}

// FeasibleBasic returns a basic feasible solution of {A·x = b, x >= 0}
// from a cold start. The Result is owned by the Solver.
func (s *Solver) FeasibleBasic(b []float64) (*Result, error) {
	return s.Solve(b, nil)
}

// WarmFeasibleBasic is FeasibleBasic warm-started from the previous
// solve's basis when one is available (and compatible: same row signs),
// falling back to a cold solve when repair fails or the repaired solution
// is not exactly feasible. The Result is owned by the Solver.
func (s *Solver) WarmFeasibleBasic(b []float64) (*Result, error) {
	if len(b) != s.m {
		panic("simplex: dimension mismatch")
	}
	s.stats = SolveStats{}
	if s.hasBasis {
		if res, ok := s.tryWarm(b); ok {
			s.stats.Warm = true
			s.stats.Pivots = s.iters
			return res, nil
		}
		s.stats.FellBack = true
	}
	return s.finishCold(b, nil)
}

func (s *Solver) finishCold(b, c []float64) (*Result, error) {
	res, err := s.solveCold(b, c)
	s.stats.Pivots = s.iters
	if err != nil {
		s.hasBasis = false
		return nil, err
	}
	s.hasBasis = true
	copy(s.prevSign, s.sign)
	return res, nil
}

// --- cold path (bit-identical to the dense tableau) ---

func (s *Solver) solveCold(b, c []float64) (*Result, error) {
	s.resetCold(b)
	// Same budget as the dense tableau: its variable count is n+m.
	maxIters := 50 * (s.m + s.n + s.m) * 4
	if err := s.iterate(nil, true, maxIters); err != nil {
		return nil, err
	}
	// Phase-1 objective = total artificial volume left in the basis. (The
	// tableau tracks this incrementally as -obj; summing the bit-identical
	// basic values gives the same quantity against a threshold ~15 orders
	// of magnitude above their difference.)
	sumArt := 0.0
	for i := 0; i < s.m; i++ {
		if s.basic[i] >= s.n {
			sumArt += s.xb[i]
		}
	}
	if sumArt > 1e-6*(1+linalg.Norm1(b)) {
		return nil, ErrInfeasible
	}
	// Drive any artificial variables out of the basis (degenerate rows),
	// scanning real columns in index order exactly like the dense path.
	// Rows where no real column has support are redundant constraints;
	// the artificial stays basic at value ~0.
	//
	// Deriving every column by ftran here is the dominant cost of a
	// paper-scale cold solve (n columns × the whole eta file per
	// artificial row), so row i is first priced in one btran: the dot
	// product y·Ā_j equals the ftran-derived tableau entry up to fp
	// roundoff (~1e-13 at tableau magnitudes), far inside the eps/2
	// guard band, so columns with |dot| ≤ eps/2 cannot pass the exact
	// |entry| > eps test and are skipped without touching their bits.
	// Candidates above the band are re-derived by ftran and tested on
	// the tableau's exact bits, preserving dense bit-identity.
	for i := 0; i < s.m; i++ {
		if s.basic[i] < s.n {
			continue
		}
		s.priceRow(i)
		for j := 0; j < s.n; j++ {
			if math.Abs(s.priceDot(j)) <= eps/2 {
				continue
			}
			s.ftranColumn(j)
			if math.Abs(s.v[i]) > eps {
				s.pivotOn(i, j)
				break
			}
		}
	}
	if c != nil {
		if err := s.iterate(c, false, maxIters); err != nil {
			return nil, err
		}
	}
	return s.extract(c), nil
}

func (s *Solver) resetCold(b []float64) {
	s.iters = 0
	s.clearEtas()
	s.luValid = false
	for i := 0; i < s.m; i++ {
		sg := 1.0
		if b[i] < 0 {
			sg = -1
		}
		s.sign[i] = sg
		s.bbar[i] = sg * b[i]
		s.xb[i] = s.bbar[i]
		s.basic[i] = s.n + i
	}
	for j := range s.pos {
		s.pos[j] = -1
	}
	for i := 0; i < s.m; i++ {
		s.pos[s.n+i] = i
	}
}

// iterate runs Bland-rule pivots until optimal, unbounded, or over budget.
// phase1 prices real variables at cost 0 and artificials at cost 1 and
// allows artificials to re-enter; phase 2 prices with c and forbids them.
func (s *Solver) iterate(c []float64, phase1 bool, maxIters int) error {
	for {
		// Price from the basis: y = B⁻ᵀ·c_B, then d_j = c_j − y·Ā_j,
		// scanning j in index order and entering at the first d_j < -eps
		// (Bland). Ā's row signs are folded into ys once per iteration.
		for i := 0; i < s.m; i++ {
			bj := s.basic[i]
			switch {
			case phase1:
				if bj >= s.n {
					s.y[i] = 1
				} else {
					s.y[i] = 0
				}
			case bj < s.n:
				s.y[i] = c[bj]
			default:
				s.y[i] = 0
			}
		}
		s.btran(s.y)
		for i := 0; i < s.m; i++ {
			s.ys[i] = s.y[i] * s.sign[i]
		}
		col := -1
		for j := 0; j < s.n+s.m; j++ {
			if j >= s.n && !phase1 {
				break // artificials may not re-enter in phase 2
			}
			var d float64
			if j < s.n {
				sum := s.priceDot(j)
				if phase1 {
					d = -sum
				} else {
					d = c[j] - sum
				}
			} else {
				d = 1 - s.y[j-s.n]
			}
			if d < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			return nil // optimal
		}
		// Ratio test on the ftran'd entering column — the same bits the
		// dense tableau holds in column col — with Bland tie-break on the
		// basic variable index.
		s.ftranColumn(col)
		row := s.ratioTest()
		if row < 0 {
			return ErrUnbounded
		}
		s.pivotOn(row, col)
		if s.iters > maxIters {
			return fmt.Errorf("simplex: iteration limit exceeded (%d)", maxIters)
		}
	}
}

// ratioTest picks the leaving row for the entering column held in s.v,
// replicating the dense tableau's test: min xb_i/v_i over v_i > eps with
// an eps band and Bland tie-break on the basic variable index.
func (s *Solver) ratioTest() int {
	row := -1
	bestRatio := math.Inf(1)
	for i := 0; i < s.m; i++ {
		aij := s.v[i]
		if aij > eps {
			ratio := s.xb[i] / aij
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && (row < 0 || s.basic[i] < s.basic[row])) {
				bestRatio = ratio
				row = i
			}
		}
	}
	return row
}

func (s *Solver) extract(c []float64) *Result {
	x := s.res.X
	for j := range x {
		x[j] = 0
	}
	for i := 0; i < s.m; i++ {
		if s.basic[i] < s.n {
			v := s.xb[i]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[s.basic[i]] = v
		}
	}
	s.res.Iters = s.iters
	s.res.Obj = 0
	if c != nil {
		s.res.Obj = linalg.Dot(c, x)
	}
	s.res.Basis = s.res.Basis[:0]
	for i := 0; i < s.m; i++ {
		if s.basic[i] < s.n && s.xb[i] > eps {
			s.res.Basis = append(s.res.Basis, s.basic[i])
		}
	}
	return &s.res
}

// --- warm path (exact-feasibility contract, not bit-pinned) ---

// virtualIdx is the variable index of the warm-repair artificial. It is
// larger than every real and phase-1 artificial index, so Bland tie-breaks
// treat it as the variable of last resort.
func (s *Solver) virtualIdx() int { return s.n + s.m }

// tryWarm attempts to reuse the previous solve's basis for a new b. It
// reports ok=false whenever the warm result cannot be certified, leaving
// the caller to fall back to a cold solve (which fully resets state).
//
// Method (the classic single-artificial warm start, cf. Chvátal ch. 8):
// refactorize B and compute x_B = B⁻¹b. If some components are negative,
// introduce one virtual column whose tableau representation u has u_i = -1
// exactly on the infeasible rows, i.e. the original-space column a_q =
// B·u. Pivoting it in at the most negative row makes every basic value
// non-negative, with the virtual carrying the worst infeasibility. Then
// minimize the virtual variable with the ordinary Bland-rule primal
// iteration (structurally the same loop as the cold phase 1, so it
// terminates); it reaches zero exactly when the previous basis can be
// repaired. A dual-simplex repair may look more natural here, but with the
// all-zero phase objective every dual ratio ties at zero and Bland's
// protection no longer applies — it cycles on real windows.
func (s *Solver) tryWarm(b []float64) (*Result, bool) {
	// The dense formulation folds row signs into A, so a basis is only
	// reusable while the sign pattern holds (for tomography b >= 0 this is
	// always the case).
	for i := 0; i < s.m; i++ {
		sg := 1.0
		if b[i] < 0 {
			sg = -1
		}
		if sg != s.prevSign[i] {
			return nil, false
		}
		s.sign[i] = sg
		s.bbar[i] = sg * b[i]
	}
	s.iters = 0
	if err := s.refactor(); err != nil {
		return nil, false
	}
	copy(s.xb, s.bbar)
	s.luFtran(s.xb)
	maxAbsB := 0.0
	for _, v := range s.bbar {
		if v > maxAbsB {
			maxAbsB = v
		}
	}
	tol := 1e-7 * (1 + maxAbsB)
	s.clampBasicNoise(tol)
	rstar := -1
	for i, v := range s.xb {
		if v < 0 && (rstar < 0 || v < s.xb[rstar]) {
			rstar = i
		}
	}
	if rstar >= 0 && !s.repairPrimal(rstar, tol) {
		return nil, false
	}
	return s.extractWarm(b, tol)
}

// clampBasicNoise zeroes basic values in (-tol, 0): numerically these are
// zeros blurred by the LU solve or pivot updates (tol is the certification
// tolerance, ~1e-13 relative at paper magnitudes), but left negative they
// poison the primal ratio test with negative ratios — which always win —
// and the repair loop then bounces between two columns without progress
// instead of terminating under Bland's rule (whose proof needs x_B >= 0).
// Certification in extractWarm re-verifies the residual against the
// original b, so a clamp can never smuggle an infeasible answer through.
func (s *Solver) clampBasicNoise(tol float64) {
	for i, v := range s.xb {
		if v < 0 && v > -tol {
			s.xb[i] = 0
		}
	}
}

// clampOrBail is clampBasicNoise that reports failure when a basic value
// sits below -tol: mid-repair that means a pivot destroyed feasibility
// outright (the ratio test guarantees x_B >= 0 up to roundoff), so the
// warm attempt aborts.
func (s *Solver) clampOrBail(tol float64) bool {
	for i, v := range s.xb {
		if v < 0 {
			if v < -tol {
				return false
			}
			s.xb[i] = 0
		}
	}
	return true
}

// repairPrimal restores primal feasibility from a basis whose most
// negative basic value sits in row rstar. See tryWarm for the method.
func (s *Solver) repairPrimal(rstar int, tol float64) bool {
	vq := s.virtualIdx()
	// Build the virtual column: tableau form u (in s.v) with -1 on every
	// infeasible row, and its original-space image a_q = B·u (negated sum
	// of the basic columns of those rows), needed for later ftrans and
	// refactorizations.
	for i := range s.v {
		s.v[i] = 0
	}
	for i := range s.aq {
		s.aq[i] = 0
	}
	for i := 0; i < s.m; i++ {
		if s.xb[i] >= 0 {
			continue
		}
		s.v[i] = -1
		bj := s.basic[i]
		if bj >= s.n {
			s.aq[bj-s.n] -= 1
		} else {
			for t := s.csc.ColPtr[bj]; t < s.csc.ColPtr[bj+1]; t++ {
				r := s.csc.RowIdx[t]
				s.aq[r] -= s.sign[r] * s.csc.Val[t]
			}
		}
	}
	// Pivot the virtual in at the most negative row: every repaired basic
	// value becomes x_i − x_rstar >= 0 and the virtual takes the worst
	// infeasibility −x_rstar > 0.
	s.pivotOn(rstar, vq)
	if !s.clampOrBail(tol) {
		return false
	}
	// Minimize the virtual: cost 1 on it, 0 elsewhere, so the pricing
	// vector y is just the virtual's row of B⁻¹ and d_j = −y·Ā_j.
	for pivots := 1; ; pivots++ {
		zrow := s.pos[vq]
		if zrow < 0 {
			return true // the virtual left the basis: feasible
		}
		// Stall insurance: real tomography windows repair in roughly
		// 2m-5m pivots; this cap sits well above that and still far below
		// the ~40m pivots of the cold solve a fallback re-runs.
		if pivots > 16*s.m+16 {
			return false
		}
		s.priceRow(zrow)
		col := -1
		for j := 0; j < s.n; j++ {
			if s.pos[j] >= 0 {
				continue
			}
			if -s.priceDot(j) < -eps {
				col = j
				break
			}
		}
		if col < 0 {
			// Optimal. Repaired iff the virtual is (numerically) zero;
			// then drive it out so the next window inherits a clean basis.
			if s.xb[zrow] > tol {
				return false
			}
			// The virtual's value is certification-level noise; zero it so
			// the drive-out pivot leaves every other row untouched.
			s.xb[zrow] = 0
			return s.driveOutVirtual(zrow)
		}
		s.ftranColumn(col)
		row := s.ratioTest()
		if row < 0 {
			return false // aux problem cannot be unbounded; numerics — bail
		}
		s.pivotOn(row, col)
		if !s.clampOrBail(tol) {
			return false
		}
		if len(s.etaRow) >= refactorEvery {
			// Refactorization swaps only the representation used by ftran
			// and btran; x_B stays incrementally updated (like the dense
			// tableau's b column) — recomputing it as B⁻¹b̄ would undo the
			// noise clamps and reintroduce negative basic values.
			if err := s.refactor(); err != nil {
				return false
			}
		}
	}
}

// driveOutVirtual swaps the (zero-valued) virtual column out of the basis
// for the first nonbasic real column with support on its row, so the basis
// kept for the next window contains only real and phase-1 artificial
// columns. Row zrow is priced in one btran and only columns above the
// eps/2 guard band are ftran'd, the prefilter the cold drive-out uses.
func (s *Solver) driveOutVirtual(zrow int) bool {
	s.priceRow(zrow)
	for j := 0; j < s.n; j++ {
		if s.pos[j] >= 0 || math.Abs(s.priceDot(j)) <= eps/2 {
			continue
		}
		s.ftranColumn(j)
		if math.Abs(s.v[zrow]) > eps {
			s.pivotOn(zrow, j)
			return true
		}
	}
	return false
}

// extractWarm certifies and extracts a warm-repaired solution: clamps
// sub-tolerance negatives to zero (so x >= 0 holds exactly), rejects any
// solution carrying real volume on an artificial variable, and verifies
// ‖A·x − b‖∞ <= 1e-6·(1+max|b|) against the original system.
func (s *Solver) extractWarm(b []float64, tol float64) (*Result, bool) {
	x := s.res.X
	for j := range x {
		x[j] = 0
	}
	for i := 0; i < s.m; i++ {
		v := s.xb[i]
		if v < 0 {
			if v < -tol {
				return nil, false
			}
			v = 0
		}
		if bj := s.basic[i]; bj < s.n {
			x[bj] = v
		} else if v > tol {
			return nil, false
		}
	}
	ax := s.ax
	for i := range ax {
		ax[i] = 0
	}
	for i := 0; i < s.m; i++ {
		bj := s.basic[i]
		if bj >= s.n || x[bj] == 0 {
			continue
		}
		xv := x[bj]
		for t := s.csc.ColPtr[bj]; t < s.csc.ColPtr[bj+1]; t++ {
			ax[s.csc.RowIdx[t]] += s.csc.Val[t] * xv
		}
	}
	maxAbsB, worst := 0.0, 0.0
	for i := 0; i < s.m; i++ {
		if a := math.Abs(b[i]); a > maxAbsB {
			maxAbsB = a
		}
		if r := math.Abs(ax[i] - b[i]); r > worst {
			worst = r
		}
	}
	if worst > 1e-6*(1+maxAbsB) {
		return nil, false
	}
	s.res.Iters = s.iters
	s.res.Obj = 0
	s.res.Basis = s.res.Basis[:0]
	for i := 0; i < s.m; i++ {
		if s.basic[i] < s.n && s.xb[i] > eps {
			s.res.Basis = append(s.res.Basis, s.basic[i])
		}
	}
	return &s.res, true
}

// --- basis kernel: eta file, ftran/btran, LU ---

func (s *Solver) clearEtas() {
	s.etaRow = s.etaRow[:0]
	s.etaInv = s.etaInv[:0]
	s.etaStart = s.etaStart[:1]
	s.etaIdx = s.etaIdx[:0]
	s.etaVal = s.etaVal[:0]
}

// priceRow loads row i of B⁻¹ into s.y by one btran and folds the row
// signs into s.ys, so priceDot(j) is row i of the transformed column j.
func (s *Solver) priceRow(i int) {
	for k := range s.y {
		s.y[k] = 0
	}
	s.y[i] = 1
	s.btran(s.y)
	for k := 0; k < s.m; k++ {
		s.ys[k] = s.y[k] * s.sign[k]
	}
}

// priceDot returns s.ys·A_j.
func (s *Solver) priceDot(j int) float64 {
	sum := 0.0
	for t := s.csc.ColPtr[j]; t < s.csc.ColPtr[j+1]; t++ {
		sum += s.ys[s.csc.RowIdx[t]] * s.csc.Val[t]
	}
	return sum
}

// pivotOn makes the variable col basic in row using the entering column
// currently held in s.v (which must be the ftran'd column). The appended
// eta records the dense tableau's row operations for this pivot — scale
// the pivot row by 1/v[row], then for every other row i with v[i] != 0
// subtract v[i]·(scaled row) — and the basic solution is updated with
// exactly those operations, keeping x_B bit-identical to the tableau's b
// column on cold solves.
func (s *Solver) pivotOn(row, col int) {
	s.iters++
	inv := 1 / s.v[row]
	s.etaRow = append(s.etaRow, int32(row))
	s.etaInv = append(s.etaInv, inv)
	for i, f := range s.v {
		if i == row || f == 0 {
			continue
		}
		s.etaIdx = append(s.etaIdx, int32(i))
		s.etaVal = append(s.etaVal, f)
	}
	s.etaStart = append(s.etaStart, len(s.etaIdx))
	s.xb[row] *= inv
	xr := s.xb[row]
	e := len(s.etaRow) - 1
	for t := s.etaStart[e]; t < s.etaStart[e+1]; t++ {
		s.xb[s.etaIdx[t]] -= s.etaVal[t] * xr
	}
	s.pos[s.basic[row]] = -1
	s.basic[row] = col
	s.pos[col] = row
}

// ftranColumn loads extended column j into s.v and transforms it by the
// current basis inverse: LU solve first (warm path), then the eta file in
// application order.
func (s *Solver) ftranColumn(j int) {
	s.loadColumn(j)
	if s.luValid {
		s.luFtran(s.v)
	}
	s.applyEtas(s.v)
}

// loadColumn writes extended column j — the sign-folded real column, the
// identity column of an artificial, or the stored virtual column — into
// s.v.
func (s *Solver) loadColumn(j int) {
	v := s.v
	for i := range v {
		v[i] = 0
	}
	switch {
	case j < s.n:
		for t := s.csc.ColPtr[j]; t < s.csc.ColPtr[j+1]; t++ {
			r := s.csc.RowIdx[t]
			v[r] = s.sign[r] * s.csc.Val[t]
		}
	case j < s.n+s.m:
		v[j-s.n] = 1
	default:
		copy(v, s.aq)
	}
}

// applyEtas applies the eta file to w in order. An eta whose scaled pivot
// entry is zero is skipped: each of its updates would subtract an exact
// zero, which leaves every entry's bits alone except, at most, the sign
// of a zero entry.
func (s *Solver) applyEtas(w []float64) {
	for e := 0; e < len(s.etaRow); e++ {
		r := s.etaRow[e]
		w[r] *= s.etaInv[e]
		wr := w[r]
		if wr == 0 {
			continue
		}
		for t := s.etaStart[e]; t < s.etaStart[e+1]; t++ {
			w[s.etaIdx[t]] -= s.etaVal[t] * wr
		}
	}
}

// btran computes w = B⁻ᵀ·w: the eta transposes in reverse order, then the
// LU transpose solve (warm path).
func (s *Solver) btran(w []float64) {
	for e := len(s.etaRow) - 1; e >= 0; e-- {
		r := s.etaRow[e]
		sum := w[r]
		for t := s.etaStart[e]; t < s.etaStart[e+1]; t++ {
			sum -= s.etaVal[t] * w[s.etaIdx[t]]
		}
		w[r] = sum * s.etaInv[e]
	}
	if s.luValid {
		s.luBtran(w)
	}
}

// refactor rebuilds the dense LU factors of the current basis, lists their
// nonzero patterns, and clears the eta file. Warm path only: cold solves
// keep B₀ = I (the artificial start) and express the whole basis inverse
// through etas.
func (s *Solver) refactor() error {
	m := s.m
	lu := s.lu
	for i := range lu {
		lu[i] = 0
	}
	for k := 0; k < m; k++ {
		bj := s.basic[k]
		switch {
		case bj >= s.n+s.m:
			for r := 0; r < m; r++ {
				lu[r*m+k] = s.aq[r]
			}
		case bj >= s.n:
			lu[(bj-s.n)*m+k] = 1
		default:
			for t := s.csc.ColPtr[bj]; t < s.csc.ColPtr[bj+1]; t++ {
				r := int(s.csc.RowIdx[t])
				lu[r*m+k] = s.sign[r] * s.csc.Val[t]
			}
		}
	}
	for col := 0; col < m; col++ {
		p, best := col, math.Abs(lu[col*m+col])
		for r := col + 1; r < m; r++ {
			if v := math.Abs(lu[r*m+col]); v > best {
				p, best = r, v
			}
		}
		if best < 1e-300 {
			return linalg.ErrSingular
		}
		s.luPerm[col] = p
		if p != col {
			for j := 0; j < m; j++ {
				lu[col*m+j], lu[p*m+j] = lu[p*m+j], lu[col*m+j]
			}
		}
		piv := lu[col*m+col]
		for r := col + 1; r < m; r++ {
			f := lu[r*m+col] / piv
			lu[r*m+col] = f
			if f == 0 {
				continue
			}
			for j := col + 1; j < m; j++ {
				lu[r*m+j] -= f * lu[col*m+j]
			}
		}
	}
	s.lCol.reset()
	s.uRow.reset()
	s.uCol.reset()
	for k := 0; k < m; k++ {
		for r := k + 1; r < m; r++ {
			s.lCol.add(r, lu[r*m+k])
		}
		s.lCol.closeGroup()
		for j := k + 1; j < m; j++ {
			s.uRow.add(j, lu[k*m+j])
		}
		s.uRow.closeGroup()
		for j := 0; j < k; j++ {
			s.uCol.add(j, lu[j*m+k])
		}
		s.uCol.closeGroup()
	}
	s.luValid = true
	s.clearEtas()
	s.stats.Refactorizations++
	return nil
}

// luFtran solves B·w' = w in place (PB = LU: apply the full permutation
// first, then forward-solve the unit-lower multipliers, then back-solve
// U). The swaps must all land before the forward solve: refactor stores
// multipliers getrf-style, i.e. swapped along with their rows by later
// elimination steps, so they only line up with a fully-permuted RHS.
//
// Both solves walk the factor patterns in the order a dense loop over lu
// would, and skip only its products with an exact zero factor entry. For
// finite w, x − (±0) is x bit for bit unless x is itself zero, so the
// result equals the dense loop's apart from, at most, the sign of a zero
// entry, which no caller divides by or branches on.
func (s *Solver) luFtran(w []float64) {
	m := s.m
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
		idx, val := s.lCol.group(col)
		for t, r := range idx {
			w[r] -= val[t] * wc
		}
	}
	for i := m - 1; i >= 0; i-- {
		sum := w[i]
		idx, val := s.uRow.group(i)
		for t, j := range idx {
			sum -= val[t] * w[j]
		}
		w[i] = sum / s.lu[i*m+i]
	}
}

// luBtran solves Bᵀ·w' = w in place (Uᵀ forward, Lᵀ backward, then the
// row swaps in reverse), skipping exact zeros like luFtran.
func (s *Solver) luBtran(w []float64) {
	m := s.m
	for i := 0; i < m; i++ {
		sum := w[i]
		idx, val := s.uCol.group(i)
		for t, j := range idx {
			sum -= val[t] * w[j]
		}
		w[i] = sum / s.lu[i*m+i]
	}
	for i := m - 2; i >= 0; i-- {
		sum := w[i]
		idx, val := s.lCol.group(i)
		for t, r := range idx {
			sum -= val[t] * w[r]
		}
		w[i] = sum
	}
	for col := m - 1; col >= 0; col-- {
		if p := s.luPerm[col]; p != col {
			w[col], w[p] = w[p], w[col]
		}
	}
}
