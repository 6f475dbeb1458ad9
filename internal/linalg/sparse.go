package linalg

// CSC is a compressed-sparse-column index of a Matrix: for each column,
// the rows with non-zero entries in ascending order. The tomography
// routing matrix is 0/1 with 2–4 entries per column (the links of one
// rack pair's path), so the column index is built once per problem and
// shared by every solver bound to it (revised simplex, WLS workspaces).
// A CSC is immutable after construction and safe for concurrent readers.
type CSC struct {
	Rows, Cols int
	ColPtr     []int32 // len Cols+1; column j occupies [ColPtr[j], ColPtr[j+1])
	RowIdx     []int32 // row index per stored entry, ascending within a column
	Val        []float64
}

// NewCSC builds the column index of m, dropping exact zeros.
func NewCSC(m *Matrix) *CSC {
	c := &CSC{
		Rows:   m.Rows,
		Cols:   m.Cols,
		ColPtr: make([]int32, m.Cols+1),
	}
	nnz := 0
	for _, v := range m.Data {
		if v != 0 {
			nnz++
		}
	}
	c.RowIdx = make([]int32, 0, nnz)
	c.Val = make([]float64, 0, nnz)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			if v := m.At(i, j); v != 0 {
				c.RowIdx = append(c.RowIdx, int32(i))
				c.Val = append(c.Val, v)
			}
		}
		c.ColPtr[j+1] = int32(len(c.RowIdx))
	}
	return c
}

// MulVecInto computes dst = A·x by column scatter. dst must have length
// Rows; it is zeroed first. Note the accumulation order differs from the
// dense row-major Matrix.MulVec (columns outer instead of inner), so the
// two can differ in the last ulp — callers that pin digests to the dense
// path (tomo.Problem.CountsInto) use Matrix.MulVecInto instead.
func (c *CSC) MulVecInto(dst, x []float64) {
	if len(x) != c.Cols || len(dst) != c.Rows {
		panic("linalg: CSC.MulVecInto dim mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < c.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for t := c.ColPtr[j]; t < c.ColPtr[j+1]; t++ {
			dst[c.RowIdx[t]] += c.Val[t] * xj
		}
	}
}

// TMulVecInto computes dst = Aᵀ·y: dst[j] is the column-j dot product
// over stored entries in ascending row order, bit-identical to the dense
// transpose's row-major MulVec on matrices whose zero entries contribute
// exact +0 terms (any matrix: x + ±0 == x for the partial sums that
// arise here, which are never -0 because IEEE subtraction of equal
// values yields +0).
func (c *CSC) TMulVecInto(dst, y []float64) {
	if len(y) != c.Rows || len(dst) != c.Cols {
		panic("linalg: CSC.TMulVecInto dim mismatch")
	}
	for j := 0; j < c.Cols; j++ {
		s := 0.0
		for t := c.ColPtr[j]; t < c.ColPtr[j+1]; t++ {
			s += c.Val[t] * y[c.RowIdx[t]]
		}
		dst[j] = s
	}
}
