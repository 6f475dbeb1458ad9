// Package tm computes and analyzes traffic matrices (TMs): how many bytes
// each endpoint sent each other endpoint over a time window. TMs are the
// paper's central macroscopic object — Figure 2's heatmap, Figure 3's
// entry distributions, Figure 4's correspondent counts, Figure 10's
// change-over-time metric, and the ground truth for the tomography study
// are all views of server- or ToR-level TMs at 1 s / 10 s / 100 s bins.
package tm

import (
	"math"
	"slices"
)

// Matrix is a sparse n×n traffic matrix of byte counts.
type Matrix struct {
	n       int
	entries map[int64]float64
}

// NewMatrix creates an empty n×n matrix.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic("tm: matrix size must be positive")
	}
	return &Matrix{n: n, entries: make(map[int64]float64)}
}

// N reports the endpoint count.
func (m *Matrix) N() int { return m.n }

func (m *Matrix) key(src, dst int) int64 { return int64(src)*int64(m.n) + int64(dst) }

// Add accumulates bytes from src to dst. Negative or zero contributions
// are ignored.
func (m *Matrix) Add(src, dst int, bytes float64) {
	if bytes <= 0 {
		return
	}
	if src < 0 || src >= m.n || dst < 0 || dst >= m.n {
		panic("tm: endpoint out of range")
	}
	m.entries[m.key(src, dst)] += bytes
}

// At returns the bytes from src to dst.
func (m *Matrix) At(src, dst int) float64 { return m.entries[m.key(src, dst)] }

// NonZero reports the number of non-zero entries.
func (m *Matrix) NonZero() int { return len(m.entries) }

// sortedKeys returns the non-zero entry keys in row-major order. Map
// iteration order is randomized per run, so any float accumulation over
// entries must walk them in a fixed order to keep results reproducible
// (same input → bit-identical sums).
func (m *Matrix) sortedKeys() []int64 {
	keys := make([]int64, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Total reports the sum of all entries.
func (m *Matrix) Total() float64 { return m.sum(m.sortedKeys()) }

// sum adds the entries at keys, in the order given.
func (m *Matrix) sum(keys []int64) float64 {
	t := 0.0
	for _, k := range keys {
		t += m.entries[k]
	}
	return t
}

// ForEach visits every non-zero entry in row-major order. The fixed
// order keeps accumulations over entries deterministic.
func (m *Matrix) ForEach(fn func(src, dst int, bytes float64)) {
	for _, k := range m.sortedKeys() {
		fn(int(k/int64(m.n)), int(k%int64(m.n)), m.entries[k])
	}
}

// normalizedChange is the paper's Figure 10 metric,
//
//	|M(t+τ) − M(t)|₁ / |M(t)|₁
//
// the absolute sum of entry-wise differences normalized by the total
// traffic of the earlier matrix, or 0 when that total is 0. ek and lk
// are earlier's and later's sortedKeys, and denom is earlier's Total:
// ChangeRing sorts each matrix's keys once.
func normalizedChange(earlier, later *Matrix, ek, lk []int64, denom float64) float64 {
	if earlier.n != later.n {
		panic("tm: normalized change size mismatch")
	}
	if denom == 0 {
		return 0
	}
	num := 0.0
	for _, k := range ek {
		num += math.Abs(later.entries[k] - earlier.entries[k])
	}
	for _, k := range lk {
		if _, ok := earlier.entries[k]; !ok {
			num += later.entries[k]
		}
	}
	return num / denom
}
