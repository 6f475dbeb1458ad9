// Package linalg provides the small dense linear algebra kernel used by the
// tomography estimators: row-major matrices, their compressed-sparse-column
// index, and the equality-constrained weighted least squares projection
// of tomogravity (a Cholesky solve inside).
//
// The matrices involved in datacenter tomography are modest (the constraint
// matrix has one row per link counter — a few hundred rows — regardless of
// cluster size), so a straightforward dense implementation is both adequate
// and dependency-free.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// MulVec returns m·x. It panics on dimension mismatch.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dim mismatch %d vs %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecInto computes dst = m·x without allocating; dst must have
// length m.Rows. The accumulation order (and hence every bit of the
// result) matches MulVec.
func (m *Matrix) MulVecInto(dst, x []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecInto dim mismatch %d vs %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic("linalg: MulVecInto dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot dim mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm1 returns the L1 norm of v.
func Norm1(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}
