package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function built from samples.
// The zero value is an empty CDF; Add samples then call any query method
// (queries sort lazily).
type CDF struct {
	xs     []float64
	ws     []float64 // weights, parallel to xs; nil means every weight is 1
	sorted bool
	totalW float64
}

// NewCDF builds a CDF from unweighted samples. The input is copied.
func NewCDF(samples []float64) *CDF {
	c := &CDF{}
	c.Grow(len(samples))
	for _, x := range samples {
		c.Add(x)
	}
	return c
}

// Add appends one unweighted sample.
func (c *CDF) Add(x float64) { c.AddWeighted(x, 1) }

// AddWeighted appends a sample with the given non-negative weight. Weighted
// CDFs express "fraction of bytes" style distributions (e.g. Figure 9's
// bytes-weighted flow-duration CDF). A negative or NaN weight, or a NaN
// sample, panics: NaN has no place in the canonical order.
//
// A CDF whose every weight is 1 stores x alone, 8 bytes a sample. The
// first weight other than 1 creates the weight column, filled with 1
// for the samples before it.
func (c *CDF) AddWeighted(x, w float64) {
	if w < 0 || math.IsNaN(w) {
		panic("stats: negative or NaN CDF weight")
	}
	if math.IsNaN(x) {
		panic("stats: NaN CDF sample")
	}
	if c.ws == nil && w != 1 {
		c.ws = make([]float64, len(c.xs), cap(c.xs))
		for i := range c.ws {
			c.ws[i] = 1
		}
	}
	c.xs = append(c.xs, x)
	if c.ws != nil {
		c.ws = append(c.ws, w)
	}
	c.totalW += w
	c.sorted = false
}

// Grow pre-allocates capacity for n additional samples, saving the
// append-regrowth copies when the caller knows the sample count up
// front (e.g. one CDF sample per record in a shard). The weight column
// is reserved only once it exists.
func (c *CDF) Grow(n int) {
	if n <= 0 || len(c.xs)+n <= cap(c.xs) {
		return
	}
	xs := make([]float64, len(c.xs), len(c.xs)+n)
	copy(xs, c.xs)
	c.xs = xs
	if c.ws != nil {
		ws := make([]float64, len(c.ws), len(c.ws)+n)
		copy(ws, c.ws)
		c.ws = ws
	}
}

// weight returns sample i's weight: 1 when the CDF has no weight column.
func (c *CDF) weight(i int) float64 {
	if c.ws == nil {
		return 1
	}
	return c.ws[i]
}

// N reports the number of samples.
func (c *CDF) N() int { return len(c.xs) }

// TotalWeight reports the sum of sample weights, summed in canonical
// order so the result is independent of insertion order.
func (c *CDF) TotalWeight() float64 {
	c.ensureSorted()
	return c.totalW
}

// ensureSorted puts the samples into canonical order — ascending x,
// ties by ascending weight (sortSamples) — and recomputes the total
// weight by summing in that order. Queries are therefore pure functions
// of the weighted sample multiset: two CDFs holding the same samples
// answer identically no matter how the samples were sharded, chunked
// or merge-ordered on the way in. (Insertion order only matters before
// the first query.) A unit CDF's total is its sample count, which is
// what summing that many ones gives, bit for bit, below 2⁵³ samples.
func (c *CDF) ensureSorted() {
	if c.sorted {
		return
	}
	xs := make([]float64, len(c.xs))
	var ws []float64
	if c.ws != nil {
		ws = make([]float64, len(c.ws))
	}
	sortSamples(xs, ws, c.xs, c.ws)
	totalW := float64(len(xs))
	if ws != nil {
		totalW = 0
		for _, w := range ws {
			totalW += w
		}
	}
	c.xs, c.ws = xs, ws
	c.totalW = totalW
	c.sorted = true
}

// P returns the fraction of total weight at or below x: P(X <= x).
// It returns 0 for an empty CDF.
func (c *CDF) P(x float64) float64 {
	if len(c.xs) == 0 || c.totalW == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.xs, x)
	// Advance over ties equal to x (SearchFloat64s gives first >= x).
	w := 0.0
	for j := 0; j < i; j++ {
		w += c.weight(j)
	}
	for j := i; j < len(c.xs) && c.xs[j] == x; j++ {
		w += c.weight(j)
	}
	return w / c.totalW
}

// Quantile returns the smallest sample x with P(X <= x) >= q, for q in
// (0, 1]. Quantile(0) returns the minimum sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	c.ensureSorted()
	if q <= 0 {
		return c.xs[0]
	}
	target := q * c.totalW
	w := 0.0
	for i, x := range c.xs {
		w += c.weight(i)
		if w >= target {
			return x
		}
	}
	return c.xs[len(c.xs)-1]
}

// Points returns up to n (x, P(X<=x)) pairs evenly spaced in rank, suitable
// for plotting. It always includes the first and last samples.
func (c *CDF) Points(n int) []Point {
	if len(c.xs) == 0 || n <= 0 {
		return nil
	}
	c.ensureSorted()
	if n > len(c.xs) {
		n = len(c.xs)
	}
	pts := make([]Point, 0, n)
	w, next := 0.0, 0 // w sums the weights of samples [0, next)
	for k := 0; k < n; k++ {
		i := k * (len(c.xs) - 1) / max(n-1, 1)
		for ; next <= i; next++ {
			w += c.weight(next)
		}
		pts = append(pts, Point{X: c.xs[i], Y: w / c.totalW})
	}
	return pts
}

// Point is an (x, y) pair of a plotted series.
type Point struct {
	X, Y float64
}

// TSV renders points as tab-separated "x\ty" lines.
func TSV(pts []Point) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
	}
	return b.String()
}
