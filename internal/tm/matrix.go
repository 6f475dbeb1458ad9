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
	"sort"
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

// RowSums returns per-source totals (traffic originated by each endpoint).
func (m *Matrix) RowSums() []float64 {
	out := make([]float64, m.n)
	m.ForEach(func(s, _ int, b float64) { out[s] += b })
	return out
}

// ColSums returns per-destination totals.
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.n)
	m.ForEach(func(_, d int, b float64) { out[d] += b })
	return out
}

// Values returns all non-zero entry values in descending order.
func (m *Matrix) Values() []float64 {
	out := make([]float64, 0, len(m.entries))
	for _, v := range m.entries {
		out = append(out, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	for k, v := range m.entries {
		c.entries[k] = v
	}
	return c
}

// Dense flattens the matrix row-major into a length n² slice.
func (m *Matrix) Dense() []float64 {
	out := make([]float64, m.n*m.n)
	for k, v := range m.entries {
		out[k] = v
	}
	return out
}

// FromDense builds a matrix from a row-major n² slice.
func FromDense(n int, data []float64) *Matrix {
	if len(data) != n*n {
		panic("tm: dense data size mismatch")
	}
	m := NewMatrix(n)
	for i, v := range data {
		if v > 0 {
			m.entries[int64(i)] = v
		}
	}
	return m
}

// NormalizedChange is the paper's Figure 10 metric:
//
//	|M(t+τ) − M(t)|₁ / |M(t)|₁
//
// the absolute sum of entry-wise differences normalized by the total
// traffic of the earlier matrix. It returns 0 when the earlier matrix is
// empty.
func NormalizedChange(earlier, later *Matrix) float64 {
	ek := earlier.sortedKeys()
	return normalizedChange(earlier, later, ek, later.sortedKeys(), earlier.sum(ek))
}

// normalizedChange is NormalizedChange over keys already sorted: ek and
// lk are earlier's and later's sortedKeys, and denom is earlier's Total.
// ChangeRing calls it with keys sorted once per matrix.
func normalizedChange(earlier, later *Matrix, ek, lk []int64, denom float64) float64 {
	if earlier.n != later.n {
		panic("tm: NormalizedChange size mismatch")
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

// VolumeFraction reports the smallest number of entries whose sum reaches
// the given fraction of total volume, and that count divided by the number
// of possible off-diagonal entries n(n−1) — the sparsity measure of
// Figures 13 and 14.
func (m *Matrix) VolumeFraction(frac float64) (count int, fracOfEntries float64) {
	total := m.Total()
	if total == 0 {
		return 0, 0
	}
	target := frac * total
	sum := 0.0
	for _, v := range m.Values() {
		sum += v
		count++
		if sum >= target {
			break
		}
	}
	possible := m.n * (m.n - 1)
	if possible == 0 {
		possible = 1
	}
	return count, float64(count) / float64(possible)
}
